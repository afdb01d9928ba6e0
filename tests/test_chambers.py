"""Coset chamber systems: counts, building axioms, actions, braid triviality."""

import hashlib
from collections import Counter

import pytest

from rgdkit import blueprints
from rgdkit import chambers as ch
from rgdkit.groupforge import PCPres, reflected_positions
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
    assert cs.act_tau(0, c0) == c_s
    # u_s . U_1 = u_s U_1, a different chamber
    us = cs.pres.generator(cs.rg.position[0])
    assert cs.chamber_of[()][us] != c0
    assert cs.u_perm[cs.rg.position[0] - 1][c0] == cs.chamber_of[()][us]
    # m = 2 concrete case: tau_s . u_s U_t = u_s U_t (ascent, u = u_s)
    cs2 = systems[2]
    ct = cs2.chamber_of[(1,)][cs2.pres.generator(cs2.rg.position[0])]
    assert cs2.act_tau(0, ct) == ct


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
            assert cell == set(cs.coset_members(w, c.rep))
            assert len(cell) == 1 << len(w)


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
            for r in members:
                want = _act_tau_formula(cs, gen, root_map, c, r)
                assert cs.act_tau(gen, x, rep=r) == want, (gen, c.label(), r)
            assert cs.tau_perm[gen][x] == _act_tau_formula(cs, gen, root_map, c, c.rep)


def test_u_perm_is_left_multiplication(table_system):
    # u_perm[i - 1] against u_i acting on each chamber's representative
    cs = table_system
    assert len(cs.u_perm) == cs.pres.k
    for i, perm in enumerate(cs.u_perm, start=1):
        u = cs.pres.generator(i)
        assert perm == [cs.chamber_of[c.w][cs.pres.mul(u, c.rep)] for c in cs.chambers]


def test_orbit_battery_matches_the_full_loop(table_system):
    # the cases include rank2:m6rl and both pairs of rank3_b2_product.bp; the
    # full loop is `verify_building`'s fallback, the rows of every chamber
    cs = table_system
    n = len(cs.chambers)
    sizes = ch._orbit_sizes(cs)
    assert sizes is not None and len(sizes) == 2 * cs.m and sum(sizes.values()) == n
    orbit, full = ch._building(cs, sizes), ch._building(cs, dict.fromkeys(range(n), 1))
    assert orbit.ok and orbit.checks == full.checks
    assert orbit.to_text() == full.to_text()
    report = ch.verify_building(cs)
    assert report.checks == full.checks and report.to_text() == full.to_text()


def test_delta_rows_lift_from_the_base_rows(table_system):
    # delta(g x, g y) = delta(x, y): the row of g x is the row of x read
    # through g^-1, so the base rows and the generator permutations give all
    cs = table_system
    n = len(cs.chambers)
    full, full_report = ch._delta(cs, dict.fromkeys(range(n), 1))
    sizes = ch._orbit_sizes(cs)
    base, report = ch._delta(cs, sizes)
    assert report.ok and report.checks == full_report.checks
    rows = dict(zip(sizes, base))
    queue = list(rows)
    for x in queue:
        for perm in cs.u_perm:
            if perm[x] not in rows:
                row = rows[perm[x]] = [0] * n
                for y in range(n):
                    row[perm[y]] = rows[x][y]
                queue.append(perm[x])
    assert [rows[x] for x in range(n)] == full


@pytest.mark.parametrize("name", ["rank2:m3", "rank2:m4"])
@pytest.mark.parametrize("gen", [0, 1])
def test_panel_swap_breaks_the_equivariance_premise(name, gen):
    cs = ch.build_CJ(blueprints.builtin(name), 0, 1)
    assert ch._orbit_sizes(cs) is not None
    _swap_in_panels(cs, gen, 0, len(cs.chambers) - 1)
    assert ch._orbit_sizes(cs) is None


def test_base_orbits_must_cover_the_chambers(monkeypatch, systems):
    # identity permutations keep every cell, but the orbits are the base
    # chambers alone
    cs = systems[3]
    monkeypatch.setattr(cs, "u_perm", [list(range(len(cs.chambers)))] * cs.pres.k)
    assert ch._orbit_sizes(cs) is None


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
