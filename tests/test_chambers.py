"""Coset chamber systems: counts, building axioms, actions, braid triviality."""

import hashlib
from collections import Counter
from itertools import combinations
from math import inf

import pytest

from rgdkit import blueprints
from rgdkit import chambers as ch
from rgdkit.errors import Violated
from rgdkit.groupforge import PCPres, reflected_positions
from tests.conftest import FIXTURES, fixture_path
from tests.oracles import (automorphism_edges_full, coset_by_mul, left_multiplication_rows,
                          tau_table_by_element, u_w_mask)

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
        panels = cs.panels[gen]
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
    c0 = cs.chamber_of[()][0]        # U_1
    c_s = cs.chamber_of[(0,)][0]     # U_s
    # tau_s . U_1 = U_s
    assert cs.act_tau(0, (), [0]) == [c_s]
    # u_s . U_1 = u_s U_1, a different chamber
    us = cs.pres.generator(cs.rg.position[0])
    assert cs.chamber_of[()][us] != c0
    assert cs.u_perm[cs.rg.position[0] - 1][c0] == cs.chamber_of[()][us]
    # m = 2 concrete case: tau_s . u_s U_t = u_s U_t (ascent, u = u_s)
    cs2 = systems[2]
    ct = cs2.chamber_of[(1,)][cs2.pres.generator(cs2.rg.position[0])]
    assert cs2.act_tau(0, (1,), [cs2.chambers[ct].rep]) == [ct]


def test_action_respects_distance(systems):
    # automorphism property through the constructed distance function
    cs = systems[3]
    n = len(cs.chambers)
    delta, rep = ch._delta(cs, dict.fromkeys(range(n), 1))
    assert rep.ok
    perm = cs.tau_perm[0]
    for x in range(n):
        for y in range(n):
            assert delta[x][y] == delta[perm[x]][perm[y]]


def test_chamber_canonical_coset(systems):
    cs = systems[3]
    w = (0,)
    members = cs.coset_members(w, 0)
    assert len(members) == 2  # |U_s| = 2
    assert all(cs.chamber_of[w][g] == cs.chamber_of[w][0] for g in members)


def test_m3_panel_counts_match_small_building(systems):
    # the 21-chamber system has 7 panels of each type, the incidence
    # structure of the rank-2 building with parameters (2, 2)
    cs = systems[3]
    assert len(cs.panels[0]) == 7 and len(cs.panels[1]) == 7


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
    n = len(cs.chambers)
    for gen in (cs.s, cs.t):
        for i in range(n):
            want = {j for j in range(n) if j != i and cs.adjacent(i, j, gen)}
            assert cs.adjacency[gen][i] == want, (gen, cs.chambers[i].label())


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
            assert cell == set(coset_by_mul(cs.pres, u_w_mask(cs, w), c.rep))
            assert len(cell) == 1 << len(w)


def test_chamber_tables_match_the_elementwise_oracles(table_system):
    # each coset, u_i row and tau row against one `mul` or `tau` per element
    cs = table_system
    for c, members in zip(cs.chambers, cs.members):
        want = coset_by_mul(cs.pres, u_w_mask(cs, c.w), c.rep)
        assert members == cs.coset_members(c.w, c.rep) == want, c.label()
    assert cs.u_perm == [[cs.chamber_of[c.w][row[c.rep]] for c in cs.chambers]
                         for row in left_multiplication_rows(cs.pres)]
    for gen in (cs.s, cs.t):
        assert cs.tau_table[gen] == tau_table_by_element(cs.rg, gen), gen


def _swap_in_panels(cs, gen, a, b):
    """Move chamber a into b's gen-panel and b into a's, rewriting the cells of
    both panels so the adjacency relation stays symmetric."""
    adj = cs.adjacency[gen]
    old_a, old_b = adj[a] | {a}, adj[b] | {b}
    for panel in ((old_a - {a}) | {b}, (old_b - {b}) | {a}):
        for i in panel:
            adj[i] = panel - {i}


# (builtin, gen, violations per axiom, checks, lines that must appear, to_text digest)
SWAP_CASES = [
    ("rank2:m3", 0, {"delta": 24, "Bu2": 80, "Bu3": 56}, 3521, [
        "axiom=delta w=0x0U[1.2.1] s=- gallery=0x1U[2] i=0 j=0 expected=unique element found=2",
        "axiom=Bu2 w=0x7U[e] s=- gallery=0x4U[1.2] i=0 j=0 expected=1.2.1 found=1.2",
        "axiom=Bu2 w=0x0U[1.2.1] s=- gallery=0x1U[2.1] i=0 j=0 expected=1.2 or 1.2.1 found=2",
        "axiom=Bu3 w=0x7U[e] s=1 gallery=0x1U[e] i=0 j=0 expected=1.2 found=missing",
    ], "094ffc93f4f8111541d69a137187beb45dd7c91a8974ae4fb98a8f5dbff63095"),
    ("rank2:m4", 1, {"delta": 156, "Bu2": 328, "Bu3": 188}, 16185, [
        "axiom=delta w=0xfU[e] s=- gallery=0x1U[e] i=0 j=0 expected=length 5 found=length 3",
        "axiom=Bu2 w=0xfU[e] s=- gallery=0x3U[2.1] i=0 j=0 expected=1.2.1 or 1.2.1.2 found=2.1",
        "axiom=Bu2 w=0x0U[1.2.1.2] s=- gallery=0x0U[1.2.1] i=0 j=0 expected=1.2.1.2 found=1.2.1",
        "axiom=Bu3 w=0xfU[e] s=2 gallery=0x1U[2.1.2] i=0 j=0 expected=1.2.1.2 found=missing",
    ], "1e5262a9ff4416a1089714119a926580b7e6d719aebc7f34ca37b6a2e8d57273"),
]


@pytest.mark.parametrize("name,gen,counts,checks,lines,digest", SWAP_CASES,
                         ids=[case[0] for case in SWAP_CASES])
def test_building_violations_after_a_panel_swap(name, gen, counts, checks, lines, digest):
    # first and last chamber change gen-panels: the panels still have three
    # chambers each, so only delta, Bu2 and Bu3 can see the damage
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    _swap_in_panels(cs, gen, 0, len(cs.chambers) - 1)
    report = ch.verify_building(cs)
    assert report.checks == checks
    assert Counter(v.axiom for v in report.violations) == counts
    text = report.to_text()
    rendered = text.splitlines()
    for line in lines:
        assert f"  VIOLATION {line}" in rendered
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# (builtin, swapped gen, acting gen, checks, automorphism violations by
# permutation, to_text digest): `verify_action` after the panel swap of
# SWAP_CASES, and on rank2:m6lr
ACTION_SWAP_CASES = [
    ("rank2:m3", 0, 0, 238, {"tau": 14, "u": 8},
     "2b2c70490c80ae4bff1023a3008cf7c0b557c1d60e4077b3a69917cf651aff7d"),
    ("rank2:m3", 0, 1, 238, {"tau": 14, "u": 12},
     "2969c0344d6568bec72a22294706ac7d731ec49f73a0b7d71d16fa851d81c931"),
    ("rank2:m4", 1, 0, 510, {"tau": 16, "u": 12},
     "1244f33a65ba7007c58ce9153ed4f1ff637172e1e12fde9aef7e8e8d06d477cd"),
    ("rank2:m4", 1, 1, 510, {"tau": 8, "u": 8},
     "214de25f55a0852e63bd5829ed86adefa31f60e8de2a13100d55a1a42c3d8676"),
    ("rank2:m6lr", 0, 0, 2302, {"tau": 8, "u": 8},
     "3e6394b1e2db2a66a044fa3188081b2bb7a1ef1663e272aa94f968b0a732e04f"),
    ("rank2:m6lr", 0, 1, 2302, {"tau": 16, "u": 12},
     "d12286d5172693e3b470de4e5e49f41fa1edd394d7b41aa8bb8a77773b87220c"),
]
ACTION_IDS = [f"{name}-swap{swapped + 1}-s{gen + 1}"
              for name, swapped, gen, *_ in ACTION_SWAP_CASES]


@pytest.mark.parametrize("name,swapped,gen,checks,counts,digest", ACTION_SWAP_CASES,
                         ids=ACTION_IDS)
def test_action_violations_after_a_panel_swap(name, swapped, gen, checks, counts, digest):
    # the swap breaks typed edges for tau_gen and u_gen alike; every other
    # check of `verify_action` still holds
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    _swap_in_panels(cs, swapped, 0, len(cs.chambers) - 1)
    report = ch.verify_action(cs, gen)
    assert report.checks == checks
    assert {v.axiom for v in report.violations} == {"automorphism"}
    assert Counter(v.found for v in report.violations) == counts
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("name,swapped,gen", [case[:3] for case in ACTION_SWAP_CASES],
                         ids=ACTION_IDS)
def test_broken_edges_match_the_per_edge_walk(name, swapped, gen):
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    perms = {"tau": cs.tau_perm[gen], "u": cs.u_perm[cs.rg.position[gen] - 1]}
    for damaged in (False, True):
        if damaged:
            _swap_in_panels(cs, swapped, 0, len(cs.chambers) - 1)
        walk = automorphism_edges_full(cs, gen)
        assert bool(walk) == damaged
        for tag, perm in perms.items():
            assert ch._broken_edges(cs, perm) == [edge[:3] for edge in walk if edge[3] == tag]


def _delta_words(cs):
    """Word-level oracle for `_delta`: the same BFS on normal-form tuples."""
    cox = cs.cox
    n = len(cs.chambers)
    adj = cs.adjacency
    delta = [[None] * n for _ in range(n)]
    for x in range(n):
        delta[x][x] = ()
        dist = {x: 0}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for gen in (cs.s, cs.t):
                    for z in adj[gen][y]:
                        if z not in dist:
                            dist[z] = dist[y] + 1
                            nxt.append(z)
            frontier = nxt
        for y in sorted(dist, key=dist.get)[1:]:
            candidates = {cox.nf_append(delta[x][z], gen)
                          for gen in (cs.s, cs.t) for z in adj[gen][y]
                          if dist[z] == dist[y] - 1}
            delta[x][y] = sorted(candidates)[0]
    return delta


def _act_tau_formula(cs, gen, root_map, c, rep):
    """Oracle for `act_tau`: the coset formula evaluated on U directly, with
    rep = n * u_gen^eps and n free of u_gen."""
    u = cs.pres.generator(cs.rg.position[gen])
    eps = rep & u
    n = cs.pres.mul(rep, u) if eps else rep
    sw = cs.cox.normal_form((gen,) + c.w)
    tn = cs.pres.map_elem(root_map, n)
    if len(sw) < len(c.w) or eps == 0:
        return cs.chamber_of[sw][tn]
    return cs.chamber_of[c.w][cs.pres.mul(tn, u)]


def test_delta_ids_match_the_word_oracle(table_system):
    cs = table_system
    delta, report = ch._delta(cs, dict.fromkeys(range(len(cs.chambers)), 1))
    assert report.ok, report.to_text()
    want = _delta_words(cs)
    assert [[cs.w_elements[w] for w in row] for row in delta] == want


def test_act_tau_matches_the_coset_formula(table_system):
    cs = table_system
    for gen in (cs.s, cs.t):
        root_map = reflected_positions(cs.pres.gallery, gen)
        for x, (c, members) in enumerate(zip(cs.chambers, cs.members)):
            assert members == cs.coset_members(c.w, c.rep)
            want = [_act_tau_formula(cs, gen, root_map, c, r) for r in members]
            assert cs.act_tau(gen, c.w, members) == want, (gen, c.label())
            assert cs.tau_perm[gen][x] == _act_tau_formula(cs, gen, root_map, c, c.rep)


def test_u_perm_is_left_multiplication(table_system):
    # u_perm[i - 1] against u_i acting on each chamber's representative
    cs = table_system
    assert len(cs.u_perm) == cs.pres.k
    for i, perm in enumerate(cs.u_perm, start=1):
        u = cs.pres.generator(i)
        assert perm == [cs.chamber_of[c.w][cs.pres.mul(u, c.rep)] for c in cs.chambers]


def _full_loop(cs):
    """`_building` from every chamber: `verify_building`'s fallback."""
    return ch._building(cs, dict.fromkeys(range(len(cs.chambers)), 1))


def test_orbit_battery_matches_the_full_loop(table_system):
    # the cases include rank2:m6rl and both pairs of rank3_b2_product.bp; U
    # with tau_s and tau_t is transitive on the chambers, so one orbit, keyed
    # by the base chamber 1*U_1, stands for all of them
    cs = table_system
    n = len(cs.chambers)
    sizes = ch._orbit_sizes(cs)
    assert sizes == {0: n}
    orbit, full = ch._building(cs, sizes), _full_loop(cs)
    assert orbit.ok and orbit.checks == full.checks
    assert orbit.to_text() == full.to_text()
    report = ch.verify_building(cs)
    assert report.checks == full.checks and report.to_text() == full.to_text()


def test_delta_rows_lift_from_the_base_rows(table_system):
    # delta(g x, g y) = delta(x, y): the row of g x is the row of x read
    # through g^-1, so the row of each orbit's least chamber and the certified
    # permutations, the generators of U and both tau perms, give all rows
    cs = table_system
    n = len(cs.chambers)
    full, full_report = ch._delta(cs, dict.fromkeys(range(n), 1))
    sizes = ch._orbit_sizes(cs)
    base, report = ch._delta(cs, sizes)
    assert report.ok and report.checks == full_report.checks
    rows = dict(zip(sizes, base))
    queue = list(rows)
    for x in queue:
        for perm in (*cs.u_perm, cs.tau_perm[cs.s], cs.tau_perm[cs.t]):
            if perm[x] not in rows:
                row = rows[perm[x]] = [0] * n
                for y in range(n):
                    row[perm[y]] = rows[x][y]
                queue.append(perm[x])
    assert [rows[x] for x in range(n)] == full


@pytest.mark.parametrize("name", ["rank2:m3", "rank2:m4"])
@pytest.mark.parametrize("gen", [0, 1])
def test_panel_swap_breaks_the_equivariance_premise(name, gen):
    # no permutation of the undamaged system keeps the swapped panels, so
    # none is certified: every orbit is one chamber, and the verdict is the
    # full loop's
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    n = len(cs.chambers)
    assert ch._orbit_sizes(cs) == {0: n}
    _swap_in_panels(cs, gen, 0, n - 1)
    assert ch._orbit_sizes(cs) == dict.fromkeys(range(n), 1)
    report, full = ch.verify_building(cs), _full_loop(cs)
    assert not report.ok
    assert report.checks == full.checks and report.to_text() == full.to_text()


def test_base_orbits_must_cover_the_chambers(monkeypatch, systems):
    # identity permutations for the generators of U keep every cell, so only
    # tau_s and tau_t move chamber 0, and their orbit of it is short: the
    # answer is the full loop, and so is the report
    cs = systems[3]
    n = len(cs.chambers)
    monkeypatch.setattr(cs, "u_perm", [list(range(n))] * cs.pres.k)
    orbit = [0]
    for x in orbit:
        for perm in (cs.tau_perm[cs.s], cs.tau_perm[cs.t]):
            if perm[x] not in orbit:
                orbit.append(perm[x])
    assert 1 < len(orbit) < n
    assert ch._orbit_sizes(cs) == dict.fromkeys(range(n), 1)
    report, full = ch.verify_building(cs), _full_loop(cs)
    assert report.ok and report.checks == full.checks and report.to_text() == full.to_text()


def test_building_delta_rows_budget(monkeypatch):
    # rows computed by `_delta` across `verify_building`: one for the one
    # orbit of rank2:m6lr, and all n after a panel swap, which certifies no
    # permutation
    rows = []
    delta = ch._delta

    def counted(cs, sizes):
        rows.append(len(sizes))
        return delta(cs, sizes)

    monkeypatch.setattr(ch, "_delta", counted)
    cs = ch.build_CJ(blueprints.builtin("rank2:m6lr"), 0, 1)
    assert ch.verify_building(cs).ok
    assert rows == [1]
    rows.clear()
    _swap_in_panels(cs, 0, 0, len(cs.chambers) - 1)
    assert not ch.verify_building(cs).ok
    assert rows == [len(cs.chambers)]


def test_orbit_certification_budget(monkeypatch):
    # the tau perms come first, then u_1 ... u_k, each certified once, and none
    # after the orbit of chamber 0 holds every chamber: tau_s, tau_t and u_1
    # suffice on rank2:m6lr; on rank2:m6rl u_2 is needed as well
    certified = []
    broken_edges = ch._broken_edges

    def counted(cs, perm):
        certified.append(perm)
        return broken_edges(cs, perm)

    monkeypatch.setattr(ch, "_broken_edges", counted)
    for name, read in (("rank2:m6lr", 3), ("rank2:m6rl", 4)):
        cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
        certified.clear()
        assert ch._orbit_sizes(cs) == {0: len(cs.chambers)}
        candidates = [cs.tau_perm[cs.s], cs.tau_perm[cs.t], *cs.u_perm]
        assert certified == candidates[:read], name
        assert read < cs.pres.k + 2


def test_one_orbit_on_every_builtin_and_fixture_pair():
    # <U, tau_s, tau_t> is transitive on the chambers of every system that
    # builds, on every spherical pair; the two fixtures that fail CB3 build none
    names = [f"rank2:{v}" for v in blueprints.RANK2_BUILTINS]
    names += sorted(path.name for path in FIXTURES.glob("*.bp"))
    refused = []
    for name in names:
        bp = (blueprints.ingest_path(fixture_path(name)) if name.endswith(".bp")
              else blueprints.builtin(name))
        for s, t in combinations(range(bp.cox.rank), 2):
            if bp.cox.matrix.m(s, t) == inf:
                continue
            try:
                cs = ch.build_CJ(bp, s, t)
            except Violated:
                refused.append(name)
                continue
            assert ch._orbit_sizes(cs) == {0: len(cs.chambers)}, (name, s, t)
    assert refused == ["b2_cb2_mutated.bp", "g2_weyl_mutated.bp"]


@pytest.mark.parametrize("case", SWAP_CASES, ids=[case[0] for case in SWAP_CASES])
def test_building_falls_back_on_a_violating_base_row(monkeypatch, case):
    # the premise is forced to hold after the swap: the base rows see the
    # damage, and the full loop then reports it as pinned in SWAP_CASES
    name, gen, _, checks, _, digest = case
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    sizes = ch._orbit_sizes(cs)
    _swap_in_panels(cs, gen, 0, len(cs.chambers) - 1)
    assert not ch._building(cs, sizes).ok
    monkeypatch.setattr(ch, "_orbit_sizes", lambda _: sizes)
    report = ch.verify_building(cs)
    assert report.checks == checks
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("table,line", [
    ("tau_perm", "expected=tau.U_1 = U_s found=0x0U[e]"),
    ("u_perm", "expected=u.U_1 != U_1 found=0x0U[e]"),
])
def test_failed_witness_names_the_chamber_it_reached(monkeypatch, systems, table, line):
    # tau_1 or u_1 replaced by the identity: each witness leaves U_1 where it is
    cs = systems[3]
    perms = getattr(cs, table).copy()
    perms[0 if table == "tau_perm" else cs.rg.position[0] - 1] = list(range(len(cs.chambers)))
    monkeypatch.setattr(cs, table, perms)
    rendered = ch.verify_action(cs, 0).to_text().splitlines()
    assert f"  VIOLATION axiom=witness w=- s=- gallery=- i=0 j=0 {line}" in rendered


def test_chamber_battery_work_budget(monkeypatch):
    # the generator permutations are built once per system: collection work
    # of build_CJ and the whole battery on the m = 6 system stays within it
    calls = Counter()
    mul = PCPres.mul

    def counted(self, x, y):
        calls["mul"] += 1
        return mul(self, x, y)

    monkeypatch.setattr(PCPres, "mul", counted)
    cs = ch.build_CJ(blueprints.builtin("rank2:m6lr"), 0, 1)
    reports = [ch.verify_building(cs), ch.verify_action(cs, 0), ch.verify_action(cs, 1),
               ch.braid_check(cs)]
    assert all(r.ok for r in reports)
    assert calls["mul"] <= 1524


def test_chamber_battery_collects_each_product_once(monkeypatch):
    # collection from the left only multiplies a normal form by one
    # generator, and each presentation memoizes those products: over build_CJ
    # and the whole battery on the m = 6 system, no (x, j) is collected from
    # scratch twice, so the misses are the memo's entries, at most k 2^k
    misses = []
    letter = PCPres._letter

    def recorded(self, x, j, budget):
        misses.append((self, x, j))
        return letter(self, x, j, budget)

    monkeypatch.setattr(PCPres, "_letter", recorded)
    cs = ch.build_CJ(blueprints.builtin("rank2:m6lr"), 0, 1)
    reports = [ch.verify_building(cs), ch.verify_action(cs, 0), ch.verify_action(cs, 1),
               ch.braid_check(cs)]
    assert all(r.ok for r in reports)
    assert {pres for pres, _, _ in misses} == {cs.pres}
    keys = {(x, j) for _, x, j in misses}
    entries = {(x, j) for j, seen in enumerate(cs.pres._memo) for x in seen}
    assert len(misses) == len(keys) and keys == entries
    assert len(entries) <= cs.pres.k << cs.pres.k


@pytest.mark.parametrize("name", ["rank2:m6lr", "rank2:m6rl"])
def test_chamber_construction_folds_one_letter_per_call(monkeypatch, name):
    # after `build_Uw`, every coset, u_i row and tau row of build_CJ hands
    # `_fold` one letter; the letters are the entries of the prefix tables
    # past their first (768 - 189 cosets, 6 * 63 u_i rows, 2 * 31 tau
    # images) and the 2 * 64 one-letter products of the tau rows
    letters, built = [], []
    fold, build_uw, act_tau = PCPres._fold, ch.build_Uw, ch.ChamberSystemJ.act_tau

    def counted(self, x, word):
        word = tuple(word)
        letters.append(len(word))
        return fold(self, x, word)

    def marked(*args, **kwargs):
        out = build_uw(*args, **kwargs)
        built.append(len(letters))
        return out

    monkeypatch.setattr(PCPres, "_fold", counted)
    monkeypatch.setattr(ch, "build_Uw", marked)
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    chamber_letters = letters[built[0]:]
    assert set(chamber_letters) == {1}
    assert len(chamber_letters) == 579 + 378 + 62 + 128
    # verify_action reads the w-dependent part of the coset formula once per
    # chamber and the tau row once per member
    reads = []

    def read(self, gen, w, reps):
        reads.append(len(reps))
        return act_tau(self, gen, w, reps)

    monkeypatch.setattr(ch.ChamberSystemJ, "act_tau", read)
    for gen in (0, 1):
        reads.clear()
        assert ch.verify_action(cs, gen).ok
        assert (len(reads), sum(reads)) == (len(cs.chambers), 768)


def test_well_definedness_reads_every_member():
    # a coset list whose first member, not the representative, is taken from
    # another chamber of the same type with another tau image: the formula
    # disagrees there alone, and verify_action names that chamber once
    cs = ch.build_CJ(blueprints.builtin("rank2:m3"), 0, 1)
    perm = cs.tau_perm[0]
    x = next(i for i, members in enumerate(cs.members) if len(members) > 1)
    other = next(i for i, c in enumerate(cs.chambers)
                 if c.w == cs.chambers[x].w and perm[i] != perm[x])
    cs.members[x] = [cs.members[other][0], *cs.members[x][1:]]
    report = ch.verify_action(cs, 0)
    assert [(v.axiom, v.w, v.expected, v.found) for v in report.violations] == [
        ("well-defined", cs.chambers[x].label(), cs.chambers[perm[x]].label(),
         cs.chambers[perm[other]].label())]
