"""Defensive paths: caps, overflow guards, refusal to guess."""

from collections import Counter

import pytest

from rgdkit import groupforge as gf
from rgdkit import roots as rt
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import (CapExceeded, CollectionOverflow,
                           InternalConsistencyError)
from rgdkit.roots import Root


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


def test_subgroup_closure_cap():
    p = gf.PCPres(4, {(i, j): () for i in range(1, 5) for j in range(i + 1, 5)})
    with pytest.raises(CapExceeded):
        gf.subgroup_closure(p, [p.generator(i) for i in range(1, 5)], cap=4)


def test_relation_table_shape_validated():
    with pytest.raises(Exception):
        gf.PCPres(3, {(1, 3): (3,)})  # value outside the open range
    with pytest.raises(Exception):
        gf.PCPres(3, {(3, 1): (2,)})  # malformed key
