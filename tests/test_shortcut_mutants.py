"""Shortcut mutants as permanent tests.

Each shortcut of the engine (an orbit battery, an early stop, a column
screen, a memo) rests on a proof in its docstring, a fallback and a test
that would fail if the shortcut were wrong.  Each row below keeps one such
wrong shortcut: a function by module and qualified name, one snippet of its
source, which must occur exactly once, the snippet's replacement, and the
test that must catch it.  The mutant is compiled from `inspect.getsource`
with the snippet replaced, in the module's globals, and installed by
`monkeypatch`; the catcher must fail on it and pass on the unmutated code.
A refactor that removes a snippet fails here loudly and updates its row.

DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978; Jia & Harman, "An analysis and survey of the development of
mutation testing", IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable

import pytest

from rgdkit import blueprints
from rgdkit import chambers as ch
from tests import test_chambers, test_errors, test_prefix_builds

# what a catcher raises when it fails: an assert, or a `pytest.raises`
# that saw nothing raised
CAUGHT = (AssertionError, pytest.fail.Exception)


@dataclass(frozen=True)
class Row:
    name: str  # the test id
    module: str
    qualname: str
    snippet: str
    replacement: str
    catch: Callable[[pytest.MonkeyPatch], None]


def _m3_systems():
    return {3: ch.build_CJ(blueprints.builtin("rank2:m3"), 0, 1)}


ROWS = [
    Row("orbit-certifies-without-edges", "rgdkit.chambers", "_orbit_sizes",
        "if len(set(perm)) < n or _broken_edges(cs, perm):",
        "if len(set(perm)) < n:",
        lambda mp: test_chambers.test_panel_swap_breaks_the_equivariance_premise(
            "rank2:m3", 0)),
    Row("orbit-no-early-stop", "rgdkit.chambers", "_orbit_sizes",
        "        if len(orbit) == n:\n"
        "            return {0: n}\n"
        "    return dict.fromkeys(range(n), 1)",
        "    return {0: n} if len(orbit) == n else dict.fromkeys(range(n), 1)",
        test_chambers.test_orbit_certification_budget),
    Row("orbit-one-certified-suffices", "rgdkit.chambers", "_orbit_sizes",
        "if len(orbit) == n:",
        "if True:",
        lambda mp: test_chambers.test_base_orbits_must_cover_the_chambers(mp, _m3_systems())),
    Row("building-keeps-the-orbit-report", "rgdkit.chambers", "verify_building",
        "if report.ok or len(sizes) == n:",
        "if True:",
        lambda mp: test_chambers.test_building_falls_back_on_a_violating_base_row(
            mp, test_chambers.SWAP_CASES[0])),
    Row("column-p3-infinite", "rgdkit.blueprints", "LocalRank2._column",
        "if p and p < 4 else ()",
        "if p and p < 3 else ()",
        lambda mp: test_prefix_builds.test_screened_columns_match_the_full_loop("rank2:m6lr")),
    Row("fold-hit-credits-no-steps", "rgdkit.groupforge", "PCPres._fold",
        "                hit = seen[x] = self._letter(x, j, cap - steps)\n"
        "            x, n = hit\n"
        "            steps += n\n",
        "                hit = seen[x] = self._letter(x, j, cap - steps)\n"
        "                steps += hit[1]\n"
        "            x = hit[0]\n",
        lambda mp: test_errors.test_step_cap_is_exact_with_or_without_the_memo(True)),
]
IDS = [row.name for row in ROWS]


def _owner(row: Row):
    """The module, and the class for a method, that holds the row's function."""
    module = importlib.import_module(row.module)
    owner = module
    for part in row.qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return module, owner


def _mutant(row: Row):
    """The row's function with its snippet replaced, compiled in its
    module's globals.  The source is dedented first, so a method's snippet
    is indented as in a function at module level."""
    module, owner = _owner(row)
    name = row.qualname.rsplit(".", 1)[-1]
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(row.snippet) == 1, (row.name, "snippet must occur exactly once")
    code = compile(source.replace(row.snippet, row.replacement), f"<mutant {row.name}>",
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, vars(module), namespace)
    return owner, name, namespace[name]


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_catcher_passes_unmutated(row):
    with pytest.MonkeyPatch.context() as mp:
        row.catch(mp)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_mutant_is_caught(monkeypatch, row):
    owner, name, mutant = _mutant(row)
    monkeypatch.setattr(owner, name, mutant)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(CAUGHT):
        row.catch(mp)
