from fractions import Fraction

import pytest

from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    build_diagram,
)
from transknot.errors import InvalidDiagramError, NongenericCurveError
from transknot.fixtures import minus_unknot, trefoil_right, u_minus, u_minus_forbidden
from transknot.geometry import Point, in_closed_cone, in_open_cone, neg
from transknot.invariants import self_linking
from transknot.moves_singular import random_valid_diagram, stabilize
from transknot.transversality import (
    UP,
    check_condition1,
    check_condition2,
    check_validity,
    forced_over,
    over_for_sign,
    require_valid,
    validate,
    whitney_index,
)

from fraction_routines import reversed_curve


def P(x, z) -> Point:
    return Point(Fraction(x), Fraction(z))


def curve(*pts) -> PolyCurve:
    return PolyCurve(tuple(P(x, z) for x, z in pts))


SQUARE = curve((0, 0), (4, 0), (4, 4), (0, 4))


class TestCondition1:
    def test_u_minus_clean(self):
        assert check_condition1(u_minus().curve, Coorientation.PLUS) == []

    def test_square_upward_edge(self):
        violations = check_condition1(SQUARE, Coorientation.PLUS)
        assert [(v.kind, v.edges) for v in violations] == [
            (ViolationKind.UpwardEdge, (2,))
        ]

    def test_reversed_u_minus_sweeps_upward(self):
        violations = check_condition1(reversed_curve(u_minus().curve), Coorientation.PLUS)
        assert violations != []
        assert {v.kind for v in violations} == {ViolationKind.UpwardCorner}

    def test_corner_sweep_detection(self):
        # the corner at vertex 2 turns from (1,0) to (-1,1), through up
        tri = curve((0, 0), (2, 0), (1, 1))
        violations = check_condition1(tri, Coorientation.PLUS)
        assert [(v.kind, v.edges) for v in violations] == [
            (ViolationKind.UpwardCorner, (1, 2))
        ]
        # under Minus the forbidden direction is down, swept at vertex 1
        violations = check_condition1(tri, Coorientation.MINUS)
        assert [(v.kind, v.edges) for v in violations] == [
            (ViolationKind.UpwardCorner, (3, 1))
        ]

    def test_downward_edge_fails_minus_only(self):
        c = curve((0, 0), (2, 0), (2, -2), (4, -2), (5, 2), (0, 2))
        kinds_plus = {v.kind for v in check_condition1(c, Coorientation.PLUS)}
        assert ViolationKind.UpwardEdge not in kinds_plus
        kinds_minus = {v.kind for v in check_condition1(c, Coorientation.MINUS)}
        assert ViolationKind.UpwardEdge in kinds_minus


class TestCondition2:
    def test_u_minus_over_choice_accepted(self):
        assert check_condition2(u_minus()) == []

    def test_flipped_over_choice_rejected(self):
        violations = check_condition2(u_minus_forbidden())
        assert [(v.kind, v.point) for v in violations] == [
            (ViolationKind.ForbiddenCrossing, P(0, 0))
        ]

    def test_cone_free_crossing_allows_both_choices(self):
        # tangents (1,1) and (1,-1): up is outside their cone
        pts = [(0, 0), (2, 2), (4, 3), (0, 2), (2, 0)]
        for over in ("lo", "hi"):
            d = build_diagram(pts, Coorientation.PLUS, {(1, 4): over})
            assert check_condition2(d) == []

    def test_minus_negates_tangents(self):
        assert check_condition2(minus_unknot()) == []
        flipped = minus_unknot().with_over({(1, 6): "hi"})
        violations = check_condition2(flipped)
        assert [v.kind for v in violations] == [ViolationKind.ForbiddenCrossing]


@pytest.mark.parametrize("coor", list(Coorientation))
@pytest.mark.parametrize("seed", range(4))
def test_forced_over_agrees_with_the_closed_cone(seed, coor):
    """On valid diagrams a crossing is free exactly when up lies outside
    the closed cone of the (Minus: reversed) tangents, and a forced
    crossing puts the leftward strand on top.  With any one over bit
    flipped, condition 2 reports exactly what the reference cone test
    and the bit of sign -1 report."""
    base = random_valid_diagram(seed, coor)
    cones = []
    for d in (base, stabilize(base, 1, 2)):
        in_cone = []
        for c in d.crossings:
            t_lo, t_hi = d.curve.direction(c.lo), d.curve.direction(c.hi)
            if coor is Coorientation.MINUS:
                t_lo, t_hi = neg(t_lo), neg(t_hi)
            forced = forced_over(d.curve, coor, c.lo, c.hi)
            assert (forced is None) == (not in_closed_cone(UP, t_lo, t_hi))
            if forced is not None:
                assert (t_lo if forced == "lo" else t_hi).x < 0
                assert (t_hi if forced == "lo" else t_lo).x > 0
            in_cone.append(in_open_cone(UP, t_lo, t_hi))
        assert check_condition2(d) == []
        for c, cone in zip(d.crossings, in_cone):
            other = "hi" if c.over == "lo" else "lo"
            bad = cone and other != over_for_sign(d.curve, c.lo, c.hi, -1)
            expected = [Violation(ViolationKind.ForbiddenCrossing, point=c.point)] if bad else []
            assert check_condition2(d.with_over({(c.lo, c.hi): other})) == expected
        cones += in_cone
    assert True in cones and False in cones  # both kinds of crossing are flipped


class TestValidate:
    def test_u_minus_valid(self):
        report = validate(u_minus())
        assert report.is_valid
        assert report.violations == ()

    def test_report_is_computed_once_per_diagram(self, monkeypatch):
        d = u_minus_forbidden()
        calls = []

        def counting(diagram):
            calls.append(diagram)
            return check_validity(diagram)

        monkeypatch.setattr("transknot.transversality.check_validity", counting)
        assert validate(d) is validate(d)
        with pytest.raises(InvalidDiagramError):
            require_valid(d)
        assert calls == [d]

    def test_forbidden_variant_has_single_violation(self):
        report = validate(u_minus_forbidden())
        assert not report.is_valid
        assert len(report.violations) == 1
        assert report.violations[0].kind is ViolationKind.ForbiddenCrossing

    def test_conditions_1_and_2_report_in_kind_order(self):
        # the two checks each sort their own list, and condition 1's kinds
        # come first, so their concatenation is the sorted report
        verts = [(p.x, p.z) for p in u_minus().curve.vertices]
        verts[2:2] = [(Fraction(6, 5), Fraction(3, 2)), (Fraction(11, 10), Fraction(9, 5))]
        d = build_diagram(verts, Coorientation.PLUS, {(1, 8): "lo"})
        assert [str(v) for v in check_validity(d).violations] == [
            "UpwardCorner e2,e3", "UpwardCorner e3,e4", "ForbiddenCrossing (0,0)"]

    def test_square_invalid(self):
        d = TransverseDiagram(SQUARE, Coorientation.PLUS, ())
        report = validate(d)
        assert not report.is_valid
        assert ViolationKind.UpwardEdge in {v.kind for v in report.violations}

    def test_genericity_short_circuits(self):
        bad = TransverseDiagram(curve((0, 0), (2, 0), (1, 0)), Coorientation.PLUS, ())
        report = validate(bad)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.CollinearOverlap in kinds
        # positional defects only; conditions 1 and 2 are never reached
        assert ViolationKind.UpwardCorner not in kinds
        assert ViolationKind.ForbiddenCrossing not in kinds

    def test_crossing_mismatch(self):
        um = u_minus()
        missing = TransverseDiagram(um.curve, Coorientation.PLUS, ())
        report = validate(missing)
        assert [(v.kind, v.edges) for v in report.violations] == [
            (ViolationKind.CrossingMismatch, (1, 6))
        ]
        extra = TransverseDiagram(
            um.curve,
            Coorientation.PLUS,
            um.crossings + (Crossing(2, 5, P(100, 100), "lo"),),
        )
        pairs = {v.edges for v in validate(extra).violations}
        assert pairs == {(2, 5)}

    def test_crossing_listed_twice_is_a_mismatch(self):
        t = trefoil_right()
        twice = TransverseDiagram(t.curve, t.coorientation, t.crossings + t.crossings[:1])
        assert [(v.kind, v.edges) for v in validate(twice).violations] == [
            (ViolationKind.CrossingMismatch, (1, 9))
        ]
        with pytest.raises(InvalidDiagramError):
            self_linking(twice)  # counted the crossing twice: 2, not 1

    def test_crossing_at_another_point_is_a_mismatch(self):
        t = trefoil_right()
        moved = TransverseDiagram(t.curve, t.coorientation, [
            Crossing(c.lo, c.hi, P(100, 100), c.over) if (c.lo, c.hi) == (1, 9) else c
            for c in t.crossings
        ])
        assert [(v.kind, v.edges) for v in validate(moved).violations] == [
            (ViolationKind.CrossingMismatch, (1, 9))
        ]
        for host in (1, 9):  # an anchor would land on the real crossing at (1, 1)
            with pytest.raises(InvalidDiagramError):
                stabilize(moved, host, 1)

    def test_minus_validity_equals_reversed_plus_validity(self):
        # coorientation flip is orientation reversal in disguise
        rc = reversed_curve(u_minus().curve)
        verts = [(p.x, p.z) for p in rc.vertices]
        good = build_diagram(verts, Coorientation.MINUS, {(5, 10): "lo"})
        assert validate(good).is_valid
        bad = build_diagram(verts, Coorientation.MINUS, {(5, 10): "hi"})
        assert [v.kind for v in validate(bad).violations] == [
            ViolationKind.ForbiddenCrossing
        ]

    def test_invariant_under_relabeling_translation_scaling(self):
        um = u_minus()
        # rotate the vertex list by 3: edge i becomes edge i-3 (mod 10)
        verts = um.curve.vertices
        rotated = [(p.x, p.z) for p in verts[3:] + verts[:3]]
        assert validate(
            build_diagram(rotated, Coorientation.PLUS, {(3, 8): "lo"})
        ).is_valid
        moved = [(3 * p.x + 5, 3 * p.z - 7) for p in verts]
        assert validate(
            build_diagram(moved, Coorientation.PLUS, {(1, 6): "hi"})
        ).is_valid


class TestWhitneyIndex:
    def test_signs_follow_turning_direction(self):
        assert whitney_index(u_minus().curve) == 0
        assert whitney_index(SQUARE) == 1
        assert whitney_index(curve((0, 0), (0, 4), (4, 4), (4, 0))) == -1

    def test_vertical_edges_force_reference_perturbation(self):
        # the square has edges parallel to every default reference
        assert whitney_index(curve((0, 0), (1, 0), (1, 1), (0, 1))) == 1

    def test_zero_for_valid_fixtures(self):
        for d in (u_minus(), minus_unknot(), trefoil_right()):
            assert whitney_index(d.curve) == 0

    def test_doubled_loop(self):
        # two full counterclockwise turns
        c = curve((0, 0), (4, 0), (4, 4), (-1, 4), (-1, -1), (5, -1), (5, 5), (-2, 5), (-2, -2), (2, -2))
        assert whitney_index(c) == 2

    def test_zero_edge_raises_instead_of_searching_forever(self):
        # the zero direction is parallel to every reference direction
        c = curve((0, 0), (4, 0), (4, 0), (4, 4), (0, 4), (0, 4))
        with pytest.raises(NongenericCurveError) as info:
            whitney_index(c)
        assert [(v.kind, v.edges) for v in info.value.violations] == [
            (ViolationKind.ZeroEdge, (2,)), (ViolationKind.ZeroEdge, (5,))]
