"""Coset chamber systems: counts, building axioms, actions, braid triviality."""

import pytest

from rgdkit import blueprints
from rgdkit import chambers as ch
from tests.conftest import fixture_path

EXPECTED_COUNTS = {2: 9, 3: 21, 4: 45, 6: 189}


@pytest.fixture(scope="module")
def systems(bp_m2, bp_m3, bp_m4, bp_m6):
    return {2: ch.build_CJ(bp_m2, 0, 1), 3: ch.build_CJ(bp_m3, 0, 1),
            4: ch.build_CJ(bp_m4, 0, 1), 6: ch.build_CJ(bp_m6, 0, 1)}


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_chamber_counts(systems, m):
    cs = systems[m]
    assert len(cs.chambers) == EXPECTED_COUNTS[m]
    # Poincare sum: sum over the dihedral of 2^(m - l(w))
    total = sum(1 << (m - len(w)) for w in cs.w_elements)
    assert total == EXPECTED_COUNTS[m]


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_building_axioms(systems, m):
    report = ch.verify_building(systems[m])
    assert report.ok, report.to_text()


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_panels_partition_and_thickness(systems, m):
    cs = systems[m]
    n = len(cs.chambers)
    for gen in (0, 1):
        panels = cs.panels(gen)
        assert all(len(p) == 3 for p in panels)
        covered = sorted(i for p in panels for i in p)
        assert covered == list(range(n))  # each chamber in exactly one panel


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_actions(systems, m):
    cs = systems[m]
    for gen in (0, 1):
        report = ch.verify_action(cs, gen)
        assert report.ok, report.to_text()


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_braid_triviality(systems, m):
    report = ch.braid_check(systems[m])
    assert report.ok, report.to_text()


def test_braid_triviality_other_orientation(bp_m6_mirror):
    cs = ch.build_CJ(bp_m6_mirror, 0, 1)
    assert len(cs.chambers) == 189
    assert ch.verify_building(cs).ok
    assert ch.verify_action(cs, 0).ok and ch.verify_action(cs, 1).ok
    assert ch.braid_check(cs).ok


def test_act_examples(systems):
    cs = systems[3]
    c0 = cs.chamber(())          # U_1
    c_s = cs.chamber((0,))       # U_s
    # tau_s . U_1 = U_s
    assert cs.act_tau(0, c0) == c_s
    # u_s . U_1 = u_s U_1, a different chamber
    us = cs.pres.generator(cs.gen_pos[0])
    assert cs.act_group(us, c0) != c0
    # m = 2 concrete case: tau_s . u_s U_t = u_s U_t (ascent, u = u_s)
    cs2 = systems[2]
    ct = cs2.chamber((1,), cs2.pres.generator(cs2.gen_pos[0]).bits)
    assert cs2.act_tau(0, ct) == ct


def test_action_respects_distance(systems):
    # automorphism property through the constructed distance function
    cs = systems[3]
    delta, rep = ch._delta(cs)
    assert rep.ok
    perm = cs.perm_tau(0)
    n = len(cs.chambers)
    for x in range(n):
        for y in range(n):
            assert delta[x][y] == delta[perm[x]][perm[y]]


def test_chamber_canonical_coset(systems):
    cs = systems[3]
    w = (0,)
    members = cs.coset_members(w, 0)
    assert len(members) == 2  # |U_s| = 2
    assert all(cs.canonical(w, g) == cs.canonical(w, 0) for g in members)


def test_m3_panel_counts_match_small_building(systems):
    # the 21-chamber system has 7 panels of each type, the incidence
    # structure of the rank-2 building with parameters (2, 2)
    cs = systems[3]
    assert len(cs.panels(0)) == 7 and len(cs.panels(1)) == 7


def test_chamber_system_on_product_type(bp_product_b2):
    # a rank-3 blueprint restricted to the quadrangle pair
    cs = ch.build_CJ(bp_product_b2, 0, 1)
    assert len(cs.chambers) == 45
    assert ch.verify_building(cs).ok
    assert ch.braid_check(cs).ok
    cs2 = ch.build_CJ(bp_product_b2, 0, 2)
    assert len(cs2.chambers) == 9
    assert ch.braid_check(cs2).ok


# every rank-2 builtin, and a rank-3 blueprint on a quadrangle and a commuting pair
COSET_TABLE_CASES = [(f"rank2:{v}", 0, 1) for v in ("m2", "m3", "m4", "m6lr", "m6rl")] + [
    ("rank3_b2_product.bp", 0, 1), ("rank3_b2_product.bp", 0, 2)]


@pytest.fixture(scope="module", params=COSET_TABLE_CASES,
                ids=[f"{name}-{s + 1}{t + 1}" for name, s, t in COSET_TABLE_CASES])
def table_system(request):
    name, s, t = request.param
    bp = (blueprints.ingest_path(fixture_path(name)) if name.endswith(".bp")
          else blueprints.builtin(name))
    return ch.build_CJ(bp, s, t)


def test_adjacency_matches_the_definition(table_system):
    # the panel-built adjacency against `adjacent` on all ordered pairs
    cs = table_system
    for gen in (cs.s, cs.t):
        for i, a in enumerate(cs.chambers):
            want = {j for j, b in enumerate(cs.chambers)
                    if j != i and cs.adjacent(a, b, gen)}
            assert cs.adjacency[gen][i] == want, (gen, a.label())


def test_coset_table_partitions_U_into_cosets(table_system):
    cs = table_system
    for w in cs.w_elements:
        cells: dict[int, set[int]] = {}
        for g, idx in enumerate(cs.chamber_of[w]):
            cells.setdefault(idx, set()).add(g)
        assert len(cs.chamber_of[w]) == cs.pres.order and -1 not in cells
        for idx, cell in cells.items():
            c = cs.chambers[idx]
            assert c.w == w and c.rep == min(cell)
            assert cell == set(cs.coset_members(w, c.rep))
            assert len(cell) == 1 << len(w)
