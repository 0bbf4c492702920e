from collections import Counter
from fractions import Fraction

import pytest

from transknot.diagram import Coorientation, Crossing, TransverseDiagram, build_diagram
from transknot.errors import InvalidDiagramError, TransknotError
from transknot.fixtures import (
    minus_unknot,
    one_crossing_unknots,
    trefoil_left,
    trefoil_right,
    trefoil_right_alt,
    u_minus,
    u_minus_forbidden,
)
from transknot.geometry import Point
from transknot.invariants import (
    InvariantValue,
    crossing_sign,
    invariant_values,
    pushoff_linking_oracle,
    self_linking,
    sign_for_over,
    v2,
    writhe,
)
from transknot.moves_singular import random_valid_diagram, stabilize


# tangents (1,1) over (1,-1) under, and vice versa
X_CURVE = [(0, 0), (2, 2), (4, 3), (0, 2), (2, 0)]


class TestCrossingSign:
    def test_u_minus_negative(self):
        d = u_minus()
        assert crossing_sign(d, d.crossings[0]) == -1

    def test_sign_flips_with_over_choice(self):
        d = build_diagram(X_CURVE, Coorientation.PLUS, {(1, 4): "lo"})
        assert crossing_sign(d, d.crossings[0]) == -1
        d = build_diagram(X_CURVE, Coorientation.PLUS, {(1, 4): "hi"})
        assert crossing_sign(d, d.crossings[0]) == 1

    def test_trefoil_sign_multiset(self):
        d = trefoil_right()
        counts = Counter(crossing_sign(d, c) for c in d.crossings)
        assert counts == {1: 4, -1: 3}


class TestWrithe:
    def test_u_minus(self):
        assert writhe(u_minus()) == -1

    def test_crossingless_curve(self):
        # not transverse-valid, but writhe is defined on any generic diagram
        d = build_diagram([(0, 0), (2, 0), (1, 1)], Coorientation.PLUS, {})
        assert writhe(d) == 0

    def test_stabilized_u_minus(self):
        assert writhe(stabilize(u_minus(), 5, 1)) == -3

    def test_trefoil(self):
        assert writhe(trefoil_right()) == 1
        assert len(trefoil_right().crossings) == 7

    def test_crossing_on_parallel_edges_is_a_domain_error(self):
        # edges 1 and 3 of a square are parallel; no sign exists
        square = build_diagram([(0, 0), (4, 0), (4, 4), (0, 4)], Coorientation.PLUS, {})
        bogus = Crossing(1, 3, Point(Fraction(2), Fraction(2)), "lo")
        with pytest.raises(TransknotError):
            writhe(TransverseDiagram(square.curve, Coorientation.PLUS, (bogus,)))


class TestSelfLinking:
    def test_fixture_values(self):
        assert self_linking(u_minus()) == -1
        assert self_linking(minus_unknot()) == -1
        assert self_linking(trefoil_right()) == 1
        assert self_linking(trefoil_right_alt()) == 1
        # the mirror turns the three braid crossings negative
        assert self_linking(trefoil_left()) == -5

    def test_requires_validity(self):
        with pytest.raises(InvalidDiagramError):
            self_linking(u_minus_forbidden())
        square = build_diagram([(0, 0), (4, 0), (4, 4), (0, 4)], Coorientation.PLUS, {})
        with pytest.raises(InvalidDiagramError):
            self_linking(square)


class TestPushoffOracle:
    @pytest.mark.parametrize(
        "make",
        [u_minus, minus_unknot, trefoil_right, trefoil_left, trefoil_right_alt],
    )
    def test_agrees_with_self_linking_on_fixtures(self, make):
        d = make()
        assert pushoff_linking_oracle(d) == self_linking(d)

    def test_agrees_on_one_crossing_family(self):
        for d in one_crossing_unknots(20):
            assert pushoff_linking_oracle(d) == self_linking(d) == -1

    def test_agrees_on_random_diagrams(self):
        for seed in range(30):
            d = random_valid_diagram(seed)
            assert pushoff_linking_oracle(d) == self_linking(d)

    def test_agrees_after_stabilization(self):
        d = stabilize(trefoil_right(), 5, 2)
        assert pushoff_linking_oracle(d) == self_linking(d) == -3


class TestV2:
    def test_unknots_vanish(self):
        assert v2(u_minus()) == 0
        assert v2(minus_unknot()) == 0
        for d in one_crossing_unknots(10):
            assert v2(d) == 0

    def test_trefoils(self):
        assert v2(trefoil_right()) == 1
        assert v2(trefoil_left()) == 1
        assert v2(trefoil_right_alt()) == 1

    def test_stabilization_invariance(self):
        assert v2(stabilize(trefoil_right(), 5, 1)) == 1
        assert v2(stabilize(u_minus(), 3, 2)) == 0

    def test_basepoint_independence(self):
        for make in (trefoil_right, trefoil_left, u_minus):
            d = make()
            values = {v2(d, basepoint=k) for k in range(1, d.curve.n + 1)}
            assert values == {v2(d)}

    @pytest.mark.parametrize("basepoint", [0, -3, 16, 100])
    def test_basepoint_out_of_range_is_refused(self, basepoint):
        # trefoil_right has 15 vertices; a wrapped index would give 1
        with pytest.raises(ValueError, match=rf"basepoint {basepoint} out of range 1\.\.15"):
            v2(trefoil_right(), basepoint=basepoint)


def test_invariant_values_record():
    vals = invariant_values(trefoil_right())
    assert vals[0] == InvariantValue("writhe", 1)
    assert [iv.name for iv in vals] == ["writhe", "sl", "whitney", "crossings", "v2"]
    assert [iv.value for iv in vals] == [1, 1, 0, 7, 1]


def test_each_crossing_is_signed_once(monkeypatch):
    # the writhe, v2 and the push-off oracle read the signs cached on the
    # diagram
    d = stabilize(trefoil_right(), 1, 3)
    signed = []

    def counting(curve, lo, hi, over):
        signed.append((lo, hi, over))
        return sign_for_over(curve, lo, hi, over)

    monkeypatch.setattr("transknot.invariants.sign_for_over", counting)
    invariant_values(d)
    assert pushoff_linking_oracle(d) == writhe(d) == -5
    assert sorted(signed) == [(c.lo, c.hi, c.over) for c in d.crossings]
    monkeypatch.undo()
    assert d.signs == tuple(crossing_sign(d, c) for c in d.crossings)
