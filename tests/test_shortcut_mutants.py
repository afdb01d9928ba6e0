"""Shortcut mutants as permanent tests.

Each shortcut of the engine (an orbit battery, an early stop, a column
screen, a memo) rests on a proof in its docstring, a fallback and a test
that would fail if the shortcut were wrong.  Each row below keeps one such
wrong shortcut: a function by module and qualified name, one snippet of its
source, which must occur exactly once, the snippet's replacement, and the
test that must catch it.  The mutant is compiled from `inspect.getsource`
with the snippet replaced, in the module's globals, and installed by
`monkeypatch`; the catcher must fail on it and pass on the unmutated code.
A catcher that reaches the function through a test module's own import
points that name at the installed one first.
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

from rgdkit import blueprints, galleries
from rgdkit import chambers as ch
from tests import (test_blueprints, test_cb3, test_chambers, test_collect_oracle, test_errors,
                   test_groupforge, test_parabolics, test_prefix_builds, test_residue,
                   test_table_memos)

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


def _own_get_gallery(mp):
    """Point `test_prefix_builds`' own binding of `get_gallery` at the one
    installed in `galleries`, the mutant once it is."""
    mp.setattr(test_prefix_builds, "get_gallery", galleries.get_gallery)


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
    Row("digits-any-unicode-digit", "rgdkit.blueprints", "is_digits",
        "text.isascii() and ",
        "",
        lambda mp: test_blueprints.test_ingest_reads_numbers_as_ascii_digits(
            *test_blueprints.BAD_NUMBERS["fullwidth-label"])),
    Row("digits-unbounded", "rgdkit.blueprints", "is_digits",
        "len(text) <= MAX_DIGITS and ",
        "",
        lambda mp: test_blueprints.test_ingest_reads_numbers_as_ascii_digits(
            *test_blueprints.BAD_NUMBERS["19-digit-position"])),
    Row("fold-memo-never-stores", "rgdkit.groupforge", "PCPres._fold",
        "hit = seen[x] = self._letter(",
        "hit = self._letter(",
        test_chambers.test_chamber_battery_collects_each_product_once),
    Row("letter-one-moves-row", "rgdkit.groupforge", "PCPres._letter",
        "row = moves[j]",
        "row = moves[0]",
        lambda mp: test_collect_oracle.test_mask_collection_matches_the_word_buffer()),
    Row("fold-miss-gets-the-whole-cap", "rgdkit.groupforge", "PCPres._fold",
        "self._letter(x, j, cap - steps)",
        "self._letter(x, j, cap)",
        lambda mp: test_errors.test_step_cap_is_exact_with_or_without_the_memo(False)),
    Row("tau-no-coverage-gate", "rgdkit.parabolics", "tau_on_residue",
        "all((i, j) in pres.rel for i in gens for j in gens if i < j) and ",
        "",
        lambda mp: test_parabolics.test_sparse_relations_take_the_elementwise_loop(
            "rank2:m6lr", test_parabolics.count_map_elem(mp))),
    Row("tau-no-braid-on-generators", "rgdkit.parabolics", "tau_on_residue",
        " and rg.us_tau(rg.us_tau(rg.us_tau(u))) == u",
        "",
        lambda mp: test_parabolics.test_identity_tau_fails_the_braid_with_u_s("rank2:m3")),
    Row("column-screens-p0-only", "rgdkit.blueprints", "LocalRank2._column",
        "if p and p < 4 else ()",
        "if p else ()",
        test_prefix_builds.test_screen_pair_value_budget),
    Row("column-screens-p1", "rgdkit.blueprints", "LocalRank2._column",
        "if p and p < 4 else ()",
        "if 1 < p < 4 else ()",
        lambda mp: test_prefix_builds.test_screened_columns_match_the_full_loop("rank2:m3")),
    Row("weyl-first-pass-ignores-mismatches", "rgdkit.blueprints", "_weyl_by_descents",
        "if bp.mismatches(G, get_gallery(cox, G.word[1:]), -1):",
        "if False:",
        lambda mp: test_table_memos.test_an_interior_weyl_violation_is_reported_at_both_sites()),
    Row("weyl-first-pass-notes-a-cap", "rgdkit.blueprints", "_weyl_by_descents",
        "            gals = min_gal(cox, w, gallery_cap)\n",
        "            try:\n"
        "                gals = min_gal(cox, w, gallery_cap)\n"
        "            except CapExceeded:\n"
        "                report.skip(f\"skipped w={word_label(w)}: more than {gallery_cap} "
        "galleries\")\n"
        "                continue\n",
        lambda mp: test_table_memos.test_weyl_at_a_gallery_cap_matches_the_full_loop(
            "rank2:m6lr")),
    Row("weyl-first-pass-catches-caps-only", "rgdkit.blueprints", "_weyl_by_descents",
        "except RgdError:",
        "except CapExceeded:",
        lambda mp: test_table_memos.test_a_table_that_fails_to_build_raises_as_in_the_full_loop()),
    Row("gallery-warm-step-refuses-nothing", "rgdkit.galleries", "get_gallery",
        "if cox.vec_sign(last) < 0:",
        "if False:",
        lambda mp: _own_get_gallery(mp)
        or test_prefix_builds.test_get_gallery_refuses_exactly_the_unreduced_words("A2")),
    Row("gallery-warm-step-builds-the-tail", "rgdkit.galleries", "get_gallery",
        "cache.get(word[1:])",
        "get_gallery(cox, word[1:]) if word else None",
        lambda mp: _own_get_gallery(mp)
        or test_prefix_builds.test_a_word_without_its_tail_gallery_takes_the_cold_pass(mp)),
    Row("gallery-warm-step-by-apply", "rgdkit.galleries", "get_gallery",
        "cox.reflect(word[0], tail.last) if tail.word else cox.basis[word[0]]",
        "cox.apply(word[:-1], cox.basis[word[-1]])",
        lambda mp: test_prefix_builds.test_warm_step_work_budget(mp, "rank3_cycle444.bp", 6)),
    Row("gallery-warm-step-reflects-the-head", "rgdkit.galleries", "get_gallery",
        "cox.reflect(word[0], tail.last)",
        "cox.reflect(word[0], head.last)",
        lambda mp: _own_get_gallery(mp)
        or test_prefix_builds.test_get_gallery_refuses_exactly_the_unreduced_words("A3")),
    Row("cb1-no-every-prefix-rerun", "rgdkit.blueprints", "validate_cb1",
        "for immediate in (True, False):",
        "for immediate in (True,):",
        test_prefix_builds.test_cb1_falls_back_to_every_prefix_on_a_disagreement),
    Row("cb3-always-takes-the-prefix-certificate", "rgdkit.groupforge", "build_Uw",
        "if (k - 1, bp.table_no(prefix)) in consistent and not bp.mismatches(base, prefix, 0):",
        "if True:",
        lambda mp: test_cb3.test_prefix_tree_falls_back_when_the_prefix_table_differs(
            test_cb3.spy_tops(mp))),
    Row("span-drops-an-element-at-a-taken-depth", "rgdkit.groupforge", "_normal_span",
        "x = pres.mul(x, b)",
        "break",
        lambda mp: test_groupforge.test_lower_central_series_matches_the_element_definition()),
    # entry y as the entry of y without its lowest bit times that bit's
    # letter: the letters of y multiplied in descending order
    Row("prefix-parent-clears-the-lowest-bit", "rgdkit.groupforge", "PCPres.prefix_table",
        "    for j in letters:  # the entries y with top bit i, for letters[i] = j\n"
        "        j = (j,)\n"
        "        out += [fold(x, j) for x in out]\n",
        "    for j in reversed(letters):\n"
        "        j = (j,)\n"
        "        out = [z for x in out for z in (x, fold(x, j))]\n",
        lambda mp: test_collect_oracle.test_prefix_table_matches_mul_and_map_elem()),
    Row("coset-high-block-shift-off-by-one", "rgdkit.chambers", "ChamberSystemJ.coset_members",
        "self.pres.k - len(w)",
        "self.pres.k - len(w) - 1",
        lambda mp: test_chambers.test_chamber_tables_match_the_elementwise_oracles(
            ch.build_CJ(blueprints.builtin("rank2:m6lr"), 0, 1))),
    Row("action-compares-only-the-representative", "rgdkit.chambers", "verify_action",
        "cs.act_tau(gen, chambers[x].w, members)",
        "cs.act_tau(gen, chambers[x].w, [chambers[x].rep])",
        lambda mp: test_chambers.test_well_definedness_reads_every_member()),
    # (3, inf, inf) has residues with gates other than the identity
    Row("residue-fill-leaves-values-unmoved", "rgdkit.blueprints", "LocalRank2._fill",
        "frozenset(map(moved.get, value))",
        "frozenset(map(Root, value))",
        lambda mp: test_residue.test_residue_fill_matches_the_per_pair_oracle("3_inf_inf")),
    Row("residue-fill-keys-on-base-roots", "rgdkit.blueprints", "LocalRank2._fill",
        "frozenset(map(moved.get, pair))",
        "frozenset(map(Root, pair))",
        lambda mp: test_residue.test_residue_fill_matches_the_per_pair_oracle("3_inf_inf")),
    Row("residue-fill-stores-only-the-requested-pair", "rgdkit.blueprints",
        "LocalRank2.pair_value",
        "        self._fill(common_residue(self.cox, alpha, beta))\n",
        "        kept = dict(self._pair_cache)\n"
        "        self._fill(common_residue(self.cox, alpha, beta))\n"
        "        self._pair_cache = {**kept, key: self._pair_cache.get(key, frozenset())}\n",
        lambda mp: test_residue.test_one_common_residue_call_fills_both_rj_tables(
            mp, "rank2:m6lr")),
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
