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
    check_genericity,
    detect_crossings,
    min_feature_separation2,
    parse_diagram,
    reversed_curve,
    serialize_diagram,
)
from transknot.errors import CrossingMismatchError, NongenericCurveError, ParseError
from transknot.fixtures import (
    minus_unknot,
    one_crossing_unknots,
    trefoil_left,
    trefoil_right,
    trefoil_right_alt,
    u_minus,
    u_minus_forbidden,
)
from transknot.geometry import Point, segment_intersection
from transknot.invariants import invariant_values
from transknot.transversality import validate


def P(x, z) -> Point:
    return Point(Fraction(x), Fraction(z))


def curve(*pts) -> PolyCurve:
    return PolyCurve(tuple(P(x, z) for x, z in pts))


SQUARE = curve((0, 0), (4, 0), (4, 4), (0, 4))

U_MINUS_TEXT = (
    "transverse-diagram/1\n"
    "coorientation: +\n"
    "vertices:\n"
    "-1 -1\n"
    "1 1\n"
    "2 1\n"
    "3 0\n"
    "2 -1\n"
    "1 -1\n"
    "-1 1\n"
    "-2 1\n"
    "-3 0\n"
    "-2 -1\n"
    "over:\n"
    "cross 1 6 over=hi\n"
    "end\n"
)


class TestPolyCurve:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            PolyCurve((P(0, 0), P(1, 1)))

    def test_cyclic_indexing(self):
        c = curve((0, 0), (2, 0), (1, 1))
        assert c.n == 3
        assert c.vertex(4) == c.vertex(1) == P(0, 0)
        assert c.edge(3) == (P(1, 1), P(0, 0))
        assert c.direction(3) == (-1, -1)
        assert len(list(c.edges())) == 3
        corners = {i: (din, dout) for i, din, dout in c.corners()}
        assert corners[1] == ((-1, -1), (2, 0))

    def test_adjacent_edges(self):
        c = SQUARE
        assert c.adjacent_edges(1, 2)
        assert c.adjacent_edges(1, 4)  # wraps around
        assert not c.adjacent_edges(1, 3)


class TestCrossing:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            Crossing(6, 1, P(0, 0), "hi")
        with pytest.raises(ValueError):
            Crossing(1, 6, P(0, 0), "up")

    def test_over_under_edges(self):
        c = Crossing(1, 6, P(0, 0), "hi")
        assert c.over_edge == 6
        assert c.under_edge == 1
        c = Crossing(1, 6, P(0, 0), "lo")
        assert c.over_edge == 1
        assert c.under_edge == 6


def test_diagram_sorts_crossings():
    d = trefoil_right()
    pairs = [(c.lo, c.hi) for c in d.crossings]
    assert pairs == sorted(pairs)


def test_with_over_flips_only_named_pairs():
    d = u_minus()
    flipped = d.with_over({(1, 6): "lo"})
    assert flipped.crossings[0].over == "lo"
    assert flipped.curve is d.curve
    assert u_minus().crossings[0].over == "hi"


def test_reversed_curve_keeps_first_vertex():
    c = curve((0, 0), (1, 0), (1, 1), (0, 1))
    r = reversed_curve(c)
    assert r.vertices[0] == P(0, 0)
    assert r.vertices == (P(0, 0), P(0, 1), P(1, 1), P(1, 0))


class TestDetectCrossings:
    def test_embedded_square_has_none(self):
        assert detect_crossings(SQUARE) == []

    def test_u_minus_single_crossing(self):
        assert detect_crossings(u_minus().curve) == [(1, 6, P(0, 0))]

    def test_reversal_reindexes_edges(self):
        assert detect_crossings(reversed_curve(u_minus().curve)) == [(5, 10, P(0, 0))]

    def test_returned_list_is_a_copy(self):
        c = u_minus().curve
        found = detect_crossings(c)
        found.append((2, 5, P(1, 1)))
        found[0] = (3, 7, P(2, 2))
        assert detect_crossings(c) == [(1, 6, P(0, 0))]
        bad = curve((0, 0), (2, 0), (1, 0))
        flagged = check_genericity(bad)
        expected = list(flagged)
        flagged.clear()
        assert check_genericity(bad) == expected != []


def test_each_curve_is_scanned_once(monkeypatch):
    """Parsing, validating twice and computing all invariants share one
    all-pairs crossing scan of the parsed curve."""
    text = serialize_diagram(trefoil_right())
    calls = []

    def counting(*args):
        calls.append(args)
        return segment_intersection(*args)

    monkeypatch.setattr("transknot.diagram.segment_intersection", counting)
    d = parse_diagram(text)
    assert validate(d).is_valid
    invariant_values(d)
    assert validate(d).is_valid
    n = d.curve.n
    assert n == 15
    # one call per non-adjacent edge pair
    assert len(calls) == n * (n - 1) // 2 - n == 90


class TestGenericity:
    def test_square_and_fixture_pass(self):
        assert check_genericity(SQUARE) == []
        assert check_genericity(u_minus().curve) == []

    def test_collinear_triangle(self):
        kinds = {v.kind for v in check_genericity(curve((0, 0), (2, 0), (1, 0)))}
        assert ViolationKind.CollinearOverlap in kinds

    def test_vertex_revisits_edge(self):
        kinds = {v.kind for v in check_genericity(curve((0, 0), (2, 2), (1, 1), (3, 0)))}
        assert ViolationKind.VertexOnEdge in kinds

    def test_zero_edge(self):
        kinds = {v.kind for v in check_genericity(curve((0, 0), (0, 0), (1, 1)))}
        assert ViolationKind.ZeroEdge in kinds

    def test_reversal_corner(self):
        kinds = {v.kind for v in check_genericity(curve((0, 0), (2, 2), (1, 1)))}
        assert ViolationKind.ReversalCorner in kinds


def test_violation_locations():
    v = Violation(ViolationKind.CrossingMismatch, edges=(1, 6))
    assert v.location_str() == "e1,e6"
    v = Violation(ViolationKind.ForbiddenCrossing, point=P(0, 0))
    assert v.location_str() == "(0,0)"
    v = Violation(ViolationKind.ForbiddenCrossing, point=P(Fraction(1, 2), -3))
    assert v.location_str() == "(1/2,-3)"


class TestBuildDiagram:
    def test_accepts_plain_number_pairs(self):
        d = build_diagram([(0, 0), (1, 0), (0.5, 1)], Coorientation.PLUS, {})
        assert d.curve.vertex(3) == P(Fraction(1, 2), 1)

    def test_rejects_nongeneric(self):
        with pytest.raises(NongenericCurveError) as exc:
            build_diagram([(0, 0), (2, 0), (1, 0)], Coorientation.PLUS, {})
        assert any(v.kind is ViolationKind.CollinearOverlap for v in exc.value.violations)

    def test_rejects_wrong_over_map(self):
        verts = [(p.x, p.z) for p in u_minus().curve.vertices]
        with pytest.raises(ValueError, match=r"missing \[\(1, 6\)\]"):
            build_diagram(verts, Coorientation.PLUS, {})
        with pytest.raises(ValueError, match=r"extra \[\(2, 5\)\]"):
            build_diagram(verts, Coorientation.PLUS, {(1, 6): "hi", (2, 5): "lo"})


def test_min_feature_separation_u_minus():
    assert min_feature_separation2(u_minus()) == 1
    assert min_feature_separation2(trefoil_right()) == Fraction(144, 1021)


class TestParse:
    def test_canonical_fixture_file(self):
        d = parse_diagram(U_MINUS_TEXT)
        assert d == u_minus()
        assert len(d.crossings) == 1
        assert d.crossings[0].over == "hi"

    def test_over_lo_variant_parses(self):
        text = U_MINUS_TEXT.replace("over=hi", "over=lo")
        assert parse_diagram(text) == u_minus_forbidden()

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + U_MINUS_TEXT.replace(
            "cross 1 6 over=hi", "cross 1 6 over=hi  # the only crossing"
        )
        assert parse_diagram(text) == u_minus()

    def test_crossing_mismatch(self):
        text = U_MINUS_TEXT.replace("cross 1 6", "cross 2 5")
        with pytest.raises(CrossingMismatchError) as exc:
            parse_diagram(text)
        assert exc.value.missing == [(1, 6)]
        assert exc.value.extra == [(2, 5)]

    def test_nongeneric_curve_carries_violations(self):
        text = (
            "transverse-diagram/1\ncoorientation: +\nvertices:\n"
            "0 0\n2 0\n1 0\nover:\nend\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_diagram(text)
        assert any(
            v.kind is ViolationKind.CollinearOverlap for v in exc.value.violations
        )

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda t: t.replace("transverse-diagram/1", "diagram/9"), "expected"),
            (lambda t: t.replace("coorientation: +", "coorientation: up"), "coorientation"),
            (lambda t: t.replace("-1 -1\n", "-1 -1 -1\n"), "two rationals"),
            (lambda t: t.replace("-1 -1\n", "-1 1/0\n"), "bad rational"),
            (lambda t: t.replace("cross 1 6 over=hi", "cross 1 6"), "expected 'cross"),
            (lambda t: t.replace("over=hi", "over=middle"), "over must be"),
            (lambda t: t.replace("cross 1 6", "cross 6 1"), "out of range or unordered"),
            (lambda t: t.replace("cross 1 6", "cross 1 60"), "out of range"),
            (
                lambda t: t.replace("cross 1 6 over=hi\n", "cross 1 6 over=hi\ncross 1 6 over=lo\n"),
                "duplicate",
            ),
            (lambda t: t + "trailing\n", "content after 'end'"),
            (lambda t: t.replace("end\n", ""), "unexpected end"),
            (
                lambda t: t.replace("vertices:", "vertices:\n0 0").replace(
                    "\n".join(["-1 -1", "1 1", "2 1", "3 0", "2 -1", "1 -1", "-1 1", "-2 1", "-3 0", "-2 -1"]) + "\n",
                    "",
                ),
                "at least 3 vertices",
            ),
        ],
    )
    def test_malformed_inputs(self, mangle, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_diagram(mangle(U_MINUS_TEXT))

    def test_error_reports_line_number(self):
        text = U_MINUS_TEXT.replace("-1 -1\n", "-1 oops\n")
        with pytest.raises(ParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 4


class TestSerialize:
    def test_canonical_u_minus(self):
        assert serialize_diagram(u_minus()) == U_MINUS_TEXT

    def test_rational_vertices(self):
        d = build_diagram(
            [(0, 0), (1, 0), (Fraction(1, 2), Fraction(-3, 4))],
            Coorientation.PLUS,
            {},
        )
        assert "1/2 -3/4" in serialize_diagram(d)

    @pytest.mark.parametrize(
        "make",
        [
            u_minus,
            u_minus_forbidden,
            minus_unknot,
            trefoil_right,
            trefoil_left,
            trefoil_right_alt,
            lambda: one_crossing_unknots(8)[7],
        ],
    )
    def test_round_trip_is_byte_stable(self, make):
        d = make()
        text = serialize_diagram(d)
        again = serialize_diagram(parse_diagram(text))
        assert again == text
        assert parse_diagram(again) == d
