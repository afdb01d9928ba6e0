"""Defensive paths: caps, overflow guards, refusal to guess."""

from collections import Counter
from math import inf

import pytest

from rgdkit import cli
from rgdkit import groupforge as gf
from rgdkit import roots as rt
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import (CapExceeded, CollectionOverflow,
                           InternalConsistencyError)
from rgdkit.roots import Root
from tests.oracles import subgroup_closure


def test_pair_order_refuses_unknown_angles():
    # a pairing product below 4 outside {0, 1, 2, 3} matches no label; the
    # engine must refuse rather than guess an order
    cox = CoxeterSystem(CoxeterMatrix.dihedral(6, direction=(1, 0)))
    a = rt.simple_root(cox, 0)
    # not a real root: <fake, alpha_0^vee> = 1, while its claimed coroot
    # alpha_1^vee gives <alpha_0, alpha_1^vee> = -3
    fake = Root((1, 1), ((), 1))
    assert rt.coroot_pairing(cox, a, fake) * rt.coroot_pairing(cox, fake, a) == -3
    with pytest.raises(InternalConsistencyError):
        rt.pair_order(cox, a, fake)


def test_collection_step_cap():
    p = gf.PCPres(3, {(1, 2): (), (1, 3): (2,), (2, 3): ()}, step_cap=2)
    with pytest.raises(CollectionOverflow):
        p.collect([3, 1, 3, 1])


@pytest.mark.parametrize("warm", [False, True])
def test_step_cap_is_exact_with_or_without_the_memo(warm):
    # u3 u1 u3 u1 takes 8 steps from the identity: u3 toggles (1); u1 meets
    # u3 and stacks u2, u3; u3 comes back, u2 passes it and u3 comes back
    # again (4); u3 toggles (1); u1 meets u2, which comes back (2).  Warmed,
    # both products with u1 are read from the memo, which must credit their
    # 4 + 2 steps
    table = {(1, 2): (), (1, 3): (2,), (2, 3): ()}
    for cap in (8, 7):
        p = gf.PCPres(3, table, step_cap=cap)
        if warm:
            assert p.mul(0b100, 0b001) == 0b111 and p.mul(0b011, 0b001) == 0b010
            assert p._memo[1] == {0b100: (0b111, 4), 0b011: (0b010, 2)}
        if cap == 8:
            assert p.collect([3, 1, 3, 1]) == 0b010
        else:
            with pytest.raises(CollectionOverflow, match="^collection exceeded 7 steps;"):
                p.collect([3, 1, 3, 1])
        # a product that overflows is not recorded
        assert len(p._memo[1]) == (1 if cap == 7 and not warm else 2)


def test_consistency_reports_overflow_as_inconsistent():
    p = gf.PCPres(3, {(1, 2): (), (1, 3): (2,), (2, 3): ()}, step_cap=1)
    assert p.consistency_check() is False
    assert "steps" in (p.inconsistency_witness or "")


def test_ball_cap():
    cox = CoxeterSystem(CoxeterMatrix.universal(3))
    with pytest.raises(CapExceeded):
        cox.ball(6, cap=10)


def test_ball_refuses_before_finishing_the_layer(monkeypatch):
    # universal3 at radius 40 passes any cap: the count is checked as the
    # layer grows, so at most `cap` elements are built, none by a normal
    # form or a fold, and the refused layer is not cached
    cox = CoxeterSystem(CoxeterMatrix.universal(3))
    calls = Counter()
    normal_form, fold = CoxeterSystem.normal_form, CoxeterSystem.fold

    def counted_normal_form(self, word):
        calls["normal_form"] += 1
        return normal_form(self, word)

    def counted_fold(self, z, limit):
        calls["fold"] += 1
        return fold(self, z, limit)

    monkeypatch.setattr(CoxeterSystem, "normal_form", counted_normal_form)
    monkeypatch.setattr(CoxeterSystem, "fold", counted_fold)
    with pytest.raises(CapExceeded, match="ball cap 1000 exceeded at radius 9"):
        cox.ball(40, cap=1000)
    assert calls["normal_form"] <= 1000 and calls["fold"] <= 1000
    monkeypatch.undo()
    assert cox.ball(8) == CoxeterSystem(CoxeterMatrix.universal(3)).ball(8)


@pytest.mark.parametrize("labels", [(inf, inf, inf), (3, 3, 3)], ids=["universal3", "affine_A2"])
def test_refused_layer_records_no_descents(labels):
    # a layer's words with a second left descent are recorded only once the
    # layer is complete: a refusal leaves the record and the layers as they
    # were, and the record is read off the points of the complete layers
    cox = CoxeterSystem(CoxeterMatrix.from_dict(3, dict(zip([(0, 1), (0, 2), (1, 2)], labels))))
    ball = cox.ball(6)
    layers, descents = [list(layer) for layer in cox._ball_layers], set(cox._ball_descents)
    with pytest.raises(CapExceeded, match="ball cap .* exceeded at radius 7"):
        cox.ball(40, cap=len(ball) + 1)
    assert cox._ball_layers == layers and cox._ball_descents == descents
    assert descents == {u for u in ball if sum(z < 0 for z in cox.point(u)) > 1}
    assert bool(descents) == (labels[0] == 3)


@pytest.mark.parametrize("lines,line_no", [
    (["rel 1.2.1.2 1 2 :"], 4),
    (["rel 1.2.1 1 3 : 2", "", "rel 1.2.1.2 1 2 :"], 6),
], ids=["cold_prefix", "cached_prefix"])
def test_unreduced_rel_word_is_a_parse_error(tmp_path, capsys, lines, line_no):
    # the gallery constructor decides reducedness, by one pass from the
    # identity or against the cached prefix 1.2.1, and the error names the
    # word and its line
    path = tmp_path / "unreduced.bp"
    path.write_text("\n".join(["rank 2", "m 1 2 3", "default empty", *lines]) + "\n")
    assert cli.main(["--blueprint", str(path), "validate"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {line_no}: gallery word 1.2.1.2 is not reduced\n"


def test_subgroup_closure_cap():
    p = gf.PCPres(4, {(i, j): () for i in range(1, 5) for j in range(i + 1, 5)})
    with pytest.raises(CapExceeded):
        subgroup_closure(p, [p.generator(i) for i in range(1, 5)], cap=4)


def test_relation_table_shape_validated():
    with pytest.raises(Exception):
        gf.PCPres(3, {(1, 3): (3,)})  # value outside the open range
    with pytest.raises(Exception):
        gf.PCPres(3, {(3, 1): (2,)})  # malformed key
