"""Exhaustive single-entry mutations of serialized blueprint tables.

For every triple (G, i, j) of a valid table within the serializing radius,
each subset of the open interval (i, j) other than the table's own value is
tried as a `Blueprint` that differs in that one entry.  Some validator (CB1,
CB2, Weyl-invariance or CB3, the group construction) must report a
violation: a table with one wrong value must never pass.
"""

from collections import Counter
from itertools import combinations

import pytest

from rgdkit import blueprints as bpmod
from rgdkit.galleries import min_gal
from rgdkit.groupforge import validate_cb3
from rgdkit.roots import open_interval
from tests.conftest import fixture_path

VALIDATORS = (
    ("CB1", lambda bp, r: bpmod.validate_cb1(bp, r).ok),
    ("CB2", lambda bp, r: bpmod.validate_cb2(bp).ok),
    ("Weyl", lambda bp, r: bpmod.validate_weyl(bp, r).ok),
    ("CB3", lambda bp, r: validate_cb3(bp, r).ok),
)


def _mutants(bp, r):
    """(label, mutant) for every other value of every triple up to radius r."""
    cox = bp.cox
    for w in cox.ball(r):
        for G in min_gal(cox, w):
            for i in range(1, len(G) + 1):
                for j in range(i + 1, len(G) + 1):
                    allowed = sorted(G.position(x)
                                     for x in open_interval(cox, G.root(i), G.root(j), G))
                    own = bp.query(G, i, j)
                    for size in range(len(allowed) + 1):
                        for ks in combinations(allowed, size):
                            if ks != own:
                                entries = {**bp.entries, (G.word, i, j): ks}
                                yield (f"{G.label()} ({i},{j}) : {ks}",
                                       bpmod.Blueprint(cox, entries, default=bp.default,
                                                       name=bp.name))


# (fixture, serializing radius, mutants first caught by each validator, the
# validators tried in VALIDATORS order): 160 mutants, 15 of them (all on the
# hexagon) seen only by CB3
CASES = [
    ("b2_full.bp", 4, {"CB1": 4, "CB2": 8}),
    ("g2_full.bp", 6, {"CB1": 76, "CB2": 26, "Weyl": 11, "CB3": 15}),
    ("rank3_b2_product.bp", 4, {"CB1": 6, "CB2": 8, "Weyl": 6}),
]


@pytest.mark.parametrize("name,r,caught", CASES, ids=[case[0] for case in CASES])
def test_every_single_entry_mutation_is_caught(name, r, caught):
    bp = bpmod.ingest_path(fixture_path(name))
    assert all(check(bp, r) for _, check in VALIDATORS)
    first = Counter()
    for label, mutant in _mutants(bp, r):
        catcher = next((v for v, check in VALIDATORS if not check(mutant, r)), None)
        assert catcher is not None, f"{name}: mutant {label} passes every validator"
        first[catcher] += 1
    assert first == caught
