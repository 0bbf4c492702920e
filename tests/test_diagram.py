import bisect
import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

import transknot.moves_singular as ms
from transknot import diagram
from transknot.cli import MAX_COUNT, render_svg
from transknot.diagram import (
    MAX_DENOMINATOR_BITS,
    MAX_EDGE_PAIRS,
    MAX_EXPONENT,
    MAX_TOKEN_CHARS,
    MAX_VERTICES,
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    _crossing_scan,
    _parse_rational,
    build_diagram,
    check_genericity,
    detect_crossings,
    min_feature_separation2,
    parse_diagram,
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
from transknot.geometry import Point, box_overlapping_pairs, dist2, dot, vec
from transknot.invariants import invariant_values, pushoff_linking_oracle
from transknot.moves_singular import (
    make_singular,
    random_valid_diagram,
    resolve,
    singular_family,
    stabilize,
)
from transknot.transversality import validate

from fraction_routines import corners, fraction_token, reversed_curve
from test_properties import PROFILE, diagrams


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
        turns = {i: (din, dout) for i, din, dout in corners(c)}
        assert turns[1] == ((-1, -1), (2, 0))


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
    crossing scan of the parsed curve."""
    text = serialize_diagram(trefoil_right())
    scanned = []

    def counting(c, *limit):
        scanned.append(c)
        return _crossing_scan(c, *limit)

    monkeypatch.setattr("transknot.diagram._crossing_scan", counting)
    d = parse_diagram(text)
    assert validate(d).is_valid
    invariant_values(d)
    assert validate(d).is_valid
    assert len(scanned) == 1
    assert scanned[0] is d.curve


def count_bisections(monkeypatch) -> list[int]:
    """The start of every bisection the pair pass makes from here on: its
    sweep bisects once from each sorted box, past that box."""
    starts = []

    def counted(a, x, lo):
        starts.append(lo)
        return bisect.bisect_right(a, x, lo)

    monkeypatch.setattr("transknot.diagram.bisect_right", counted)
    return starts


def test_parse_sweeps_the_edges_once(monkeypatch):
    """The crossing scan and the genericity pass share one sweep of the
    n edge boxes."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ladder"
            / "trefoil_right-e1-k8.td")
    starts = count_bisections(monkeypatch)
    d = parse_diagram(path.read_text(encoding="utf-8"))
    assert starts == list(range(1, d.curve.n + 1))
    assert validate(d).is_valid and invariant_values(d)
    assert starts == list(range(1, d.curve.n + 1))


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

    def test_crossing_mismatch_names_ten_pairs_of_each_list(self):
        # a star polygon on 61 points of a parabola: its 1,769 pairs of
        # non-adjacent edges all cross; none is declared, and 12 pairs of
        # adjacent edges are
        pts = [(i * 30 % 61, (i * 30 % 61) ** 2) for i in range(61)]
        text = ("transverse-diagram/1\ncoorientation: +\nvertices:\n"
                + "".join(f"{x} {z}\n" for x, z in pts) + "over:\n"
                + "".join(f"cross {i} {i + 1} over=lo\n" for i in range(1, 13)) + "end\n")
        with pytest.raises(CrossingMismatchError) as exc:
            parse_diagram(text)
        missing = exc.value.missing
        assert len(missing) == len(exc.value.violations) - 12 == 1769
        assert exc.value.extra == [(i, i + 1) for i in range(1, 13)]
        assert str(exc.value) == (
            "crossing list mismatch: missing "
            + ", ".join(f"({a},{b})" for a, b in missing[:10]) + " and 1759 more; extra "
            + ", ".join(f"({i},{i + 1})" for i in range(1, 11)) + " and 2 more")

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


def triangle_text(x, z):
    """A generic triangle with the tokens x and z on lines 5 and 6."""
    return ("transverse-diagram/1\ncoorientation: +\nvertices:\n"
            f"0 0\n{x} 0\n0 {z}\nover:\nend\n")


class TestParseLimits:
    @pytest.mark.parametrize("token", ["1e", "2e+", "-3E-"])
    def test_exponent_mark_without_an_exponent_is_a_bad_rational(self, token):
        with pytest.raises(ParseError, match="bad rational") as exc:
            parse_diagram(triangle_text(token, 1))
        assert exc.value.line == 5

    @pytest.mark.parametrize("token, fragment", [
        ("1e5000", f"exponent of '1e5000' exceeds {MAX_EXPONENT}"),
        ("1e400000", "exponent"),
        ("-2.5E-400000", "exponent"),
        ("1e+1_000_000", "exponent"),
        ("1" * (MAX_TOKEN_CHARS + 1), f"longer than {MAX_TOKEN_CHARS} characters"),
    ])
    def test_hostile_token_never_reaches_fraction(self, monkeypatch, token, fragment):
        # refused before conversion, so no test times a slow conversion
        def guarded(value, *rest):
            if value == token:
                pytest.fail(f"{token[:20]!r} reached Fraction")
            return Fraction(value, *rest)

        monkeypatch.setattr("transknot.diagram.Fraction", guarded)
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_diagram(triangle_text(token, 1))
        assert exc.value.line == 5

    @pytest.mark.parametrize("token", ["1e1000", "1e-998", "0." + "1" * 997])
    def test_decimal_token_too_long_written_out(self, token):
        with pytest.raises(ParseError, match="written as a fraction is longer"):
            parse_diagram(triangle_text(1, token))

    @pytest.mark.parametrize("token", [
        "1e999",  # a 1000-digit integer
        "-3e-996",  # -3/10**996
        "0." + "0" * 990 + "7e1000",  # the largest exponent, 7 * 10**9
        "9" * MAX_TOKEN_CHARS,
        "-1/" + "7" * (MAX_TOKEN_CHARS - 3),
    ])
    def test_coordinates_at_the_limits_round_trip(self, token):
        d = parse_diagram(triangle_text(token, token))
        text = serialize_diagram(d)
        assert parse_diagram(text) == d
        assert serialize_diagram(parse_diagram(text)) == text


# Tokens for the int reader against the Fraction reader: signs, slashes,
# underscores, decimals, exponents, a Unicode digit, and each limit on
# either side of its edge
TOKENS = [
    "0", "-0", "+0", "7", "+3/4", "-3/4", "6/8", "-0/5", "0007/0014", "3/-4", "3/+4", "3/0",
    "0/0", "/4", "3/", "3/4/5", "1_000", "1__000", "_1", "1_", "1/2_0", "1/_2",
    ".5", "5.", ".", "-.", "+.5", "-.5", "1.5/2", "1/2.5", "1.d", "1._5", "5.5.5", "1.2_5",
    "1e3", "1E-3", "-.5e2", "+1.25E+2", "5.e1", "1e", "2e+", "-3E-", "e3", "-e3", "1e3e3",
    "1e1_0", "1e_1", "1/3e5000", "3e5000/1",
    "\u0663", "-\u0663/\u0664", "\u0663e\u0662", "0x10", "inf", "nan", "--1", "+-1", "1-",
    "9" * MAX_TOKEN_CHARS, "9" * (MAX_TOKEN_CHARS + 1), "-1/" + "7" * (MAX_TOKEN_CHARS - 3),
    f"1e{MAX_EXPONENT - 1}", f"1e{MAX_EXPONENT}", f"1e{MAX_EXPONENT + 1}",
    f"1e-{MAX_EXPONENT - 2}", f"1e-{MAX_EXPONENT}", f"-2.5E-{MAX_EXPONENT + 1}",
    f"0.{'0' * 990}7e{MAX_EXPONENT}", "1." + "0" * (MAX_TOKEN_CHARS - 2),
    "0." + "1" * (MAX_TOKEN_CHARS - 2),  # 1,000 characters, written out longer
    "0." + "1" * (MAX_TOKEN_CHARS - 1),  # a 1,001-character decimal
]


# the SHA-256 of the repr of the outcomes of the short tokens, then of TOKENS
TOKEN_OUTCOMES_SHA256 = "e93544d3d8cc69814ffe5c317ea14e1e646ffd1d8a8f3eeb757bc69449f61e49"


def read(reader, token):
    """The pair a token reader returns, or its ParseError's line and text."""
    try:
        return reader(token, 5)
    except ParseError as e:
        return e.line, str(e)


class TestTokens:
    @pytest.mark.parametrize("token", TOKENS,
                             ids=lambda t: t if len(t) < 16 else f"{t[:6]}...{len(t)}")
    def test_token_reads_as_fraction_read_it(self, token):
        assert read(_parse_rational, token) == read(fraction_token, token)

    def test_every_short_token_reads_as_fraction_read_it(self):
        outcomes = []
        for size in range(1, 5):
            for chars in itertools.product("05_./eE+-\u0663", repeat=size):
                token = "".join(chars)
                outcomes.append(read(fraction_token, token))
                assert read(_parse_rational, token) == outcomes[-1], token
        values = [x for x in outcomes if isinstance(x[1], int)]  # not (line, message)
        assert len(values) > 500 and len(outcomes) - len(values) > 5000
        # both readers lean on Fraction's grammar, so the outcomes are
        # pinned too: a Python whose Fraction reads another grammar
        # (3.10 refuses underscores) fails here
        outcomes += [read(_parse_rational, token) for token in TOKENS]
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == TOKEN_OUTCOMES_SHA256


LADDER_K8 = (Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ladder"
             / "trefoil_right-e1-k8.td")
INPUTS = sorted(path for path in (LADDER_K8.parents[1]).glob("*/*.td")
                if path.name != "nongeneric.td")  # which does not parse


def vertex_tokens(text):
    lines = text.split("\n")
    return [line.split() for line in lines[lines.index("vertices:") + 1:lines.index("over:")]]


class TestIntRepresentation:
    def test_parse_builds_no_vertex_fraction(self, monkeypatch):
        # a ladder op decides everything on ints and builds no Fraction:
        # no vertex, and no crossing point until the crossings are read
        text = LADDER_K8.read_text(encoding="utf-8")
        built, original = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        d = parse_diagram(text)
        assert validate(d).is_valid
        assert [iv.value for iv in invariant_values(d)] == [-15, -15, 0, 23, 1]
        assert pushoff_linking_oracle(d) == -15
        assert serialize_diagram(d) == text
        assert d.curve.n == 95 and len(d.entries) == 23
        assert built == []
        points = [c.point for c in d.crossings]
        assert len(built) == 2 * len(d.crossings)  # two coordinates of each point
        assert [c.point for c in d.crossings] == points
        assert len(built) == 2 * len(d.crossings)  # built once

    @staticmethod
    def count_fractions(monkeypatch):
        built, original = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        return built

    @staticmethod
    def count_crossings(monkeypatch):
        built, original = [], Crossing.__init__
        monkeypatch.setattr(Crossing, "__init__",
                            lambda c, *args: built.append(args) or original(c, *args))
        return built

    def test_an_op_and_a_resolution_build_no_crossing(self, monkeypatch):
        # a ladder op and the resolutions of an order check read the
        # diagram's int entries and over bits: no Crossing value and no
        # Fraction is built until the crossings view is read
        text = LADDER_K8.read_text(encoding="utf-8")
        family = singular_family(1, 3, 3)
        built, crossings = self.count_fractions(monkeypatch), self.count_crossings(monkeypatch)
        d = parse_diagram(text)
        assert validate(d).is_valid
        assert [iv.value for iv in invariant_values(d)] == [-15, -15, 0, 23, 1]
        assert pushoff_linking_oracle(d) == -15
        assert serialize_diagram(d) == text
        resolved = [resolve(s, dict(zip(s.doubles, signs)))
                    for s in family for signs in itertools.product((1, -1), repeat=3)]
        assert len(resolved) == 24 and built == [] and crossings == []
        assert len(d.crossings) == len(crossings) == 23 and len(built) == 2 * 23
        assert [c.lo for c in resolved[0].crossings] == [e[0] for e in resolved[0].entries]

    def test_equality_hash_and_repr_build_no_crossing(self, monkeypatch):
        # a curve and a diagram compare, hash and print the ints they
        # store: no Crossing and no Fraction is built for either
        text = LADDER_K8.read_text(encoding="utf-8")
        a, b = parse_diagram(text), parse_diagram(text)
        built, crossings = self.count_fractions(monkeypatch), self.count_crossings(monkeypatch)
        assert a == b and a.curve == b.curve and a is not b and a.curve is not b.curve
        assert hash(a) == hash(b) and hash(a.curve) == hash(b.curve)
        assert repr(a) == repr(b) and repr(a.curve) in repr(a) and str(a.entries) in repr(a)
        assert a != a.with_over({a.entries[0][:2]: "hi" if a.overs[0] == "lo" else "lo"})
        assert built == [] and crossings == []

    def test_make_singular_and_resolve_build_no_crossing(self, monkeypatch):
        # a singular diagram is its host and the indices of its double
        # points: make_singular reads the host's entries, and resolve
        # replaces the bits of the doubles, so on fresh copies of the
        # hosts of an order-3 family neither builds a Crossing or a
        # Fraction
        calls, make = [], ms.make_singular
        monkeypatch.setattr(ms, "make_singular",
                            lambda d, sites: calls.append((d, sites)) or make(d, sites))
        singular_family(1, 3, 3)
        hosts = [(parse_diagram(serialize_diagram(d)), sites) for d, sites in calls]
        assert len(hosts) == 3 and all(validate(d).is_valid for d, _ in hosts)
        built, crossings = self.count_fractions(monkeypatch), self.count_crossings(monkeypatch)
        family = [make(d, sites) for d, sites in hosts]
        resolved = [resolve(s, dict(zip(s.doubles, signs)))
                    for s in family for signs in itertools.product((1, -1), repeat=3)]
        assert len(resolved) == 24 and built == [] and crossings == []

    def test_a_stabilization_reads_its_host_edge_from_the_ints(self, monkeypatch):
        # where the crossings lie along the host and how far the detours
        # reach are read from the ints: the Fractions are the fractions
        # of the crossings on the host, the anchors, their clearance, the
        # detours' reach and the host's direction, and no vertex or
        # crossing point is built
        d = parse_diagram(LADDER_K8.read_text(encoding="utf-8"))
        built, crossings = self.count_fractions(monkeypatch), self.count_crossings(monkeypatch)
        text = serialize_diagram(stabilize(d, 40, 1))
        assert len(built) <= 8 and crossings == []
        monkeypatch.undo()
        assert len(parse_diagram(text).entries) == len(d.entries) + 2

    def test_render_builds_no_crossing(self, monkeypatch):
        # render breaks each under strand at the fractions along its
        # edge and tells the over strand by the entries' bits
        d = trefoil_right()
        crossings = self.count_crossings(monkeypatch)
        svg = render_svg(d)
        assert crossings == []
        assert svg.count("<polyline") == d.curve.n + len(d.entries)  # one break per crossing

    def test_render_draws_from_the_ints(self, monkeypatch):
        # render reads scaled and int_directions: on the k = 8 rung its
        # Fractions are the separation and its range test, the fraction of
        # each of the 23 crossings on both its edges, and the room of each
        # under pass, three apiece; no vertex view is built
        d = parse_diagram(LADDER_K8.read_text(encoding="utf-8"))
        built = self.count_fractions(monkeypatch)
        render_svg(d)
        assert len(built) <= 2 + 2 * 23 + 3 * 23 and "vertices" not in vars(d.curve)

    @pytest.mark.parametrize("source", [*INPUTS, "hypothesis"],
                             ids=lambda source: getattr(source, "name", source))
    def test_along_edge_reads_match_the_fraction_routes(self, source):
        # fractions_along against each crossing point projected on its
        # edge, and direction against the edge's vertices subtracted, on
        # every edge of the input files and of the generated diagrams
        def check(d):
            for i, along in enumerate(d.crossings_along, start=1):
                a, b = d.curve.edge(i)
                t = vec(a, b)
                assert d.fractions_along(i) == [dot(vec(a, d.crossings[k].point), t) / dot(t, t)
                                                for k in along]
                assert d.curve.direction(i) == t

        if source == "hypothesis":
            PROFILE(given(diagrams())(check))()
        else:
            check(parse_diagram(source.read_text(encoding="utf-8")))

    def test_random_draw_builds_only_rejection_points(self, monkeypatch):
        # the draw, its curve and its crossings stay on ints; the only
        # Fractions are the points of the violations that reject a
        # non-generic draw, two coordinates each
        scan, points = diagram._crossing_scan, []

        def scanned(curve, limit=None):
            facts = scan(curve, limit)
            points.extend(v.point for v in facts[1] if v.point is not None)
            return facts

        monkeypatch.setattr(diagram, "_crossing_scan", scanned)
        built = self.count_fractions(monkeypatch)
        for seed in range(4):
            for coor in Coorientation:
                d = random_valid_diagram(seed, coor)
                assert validate(d).is_valid and d.entries
        assert len(points) == 1  # seed 2 under Minus rejects a draw at a vertex
        assert len(built) == 2 * len(points)

    def test_separation_builds_only_its_result(self, monkeypatch):
        # the crossings go in as their int triples, and only the least
        # distance comes out as a Fraction
        d = parse_diagram(LADDER_K8.read_text(encoding="utf-8"))
        built = self.count_fractions(monkeypatch)
        sep2 = min_feature_separation2(d)
        assert len(built) == 1 and sep2 > 0
        monkeypatch.undo()
        assert sep2 == min(min_feature_separation2(TransverseDiagram(d.curve, d.coorientation, ())),
                           *(dist2(a.point, b.point) for a, b in
                             itertools.combinations(d.crossings, 2)))

    def test_parse_computes_the_lcm_once(self, monkeypatch):
        text = LADDER_K8.read_text(encoding="utf-8")
        denominators = {Fraction(t).denominator for pair in vertex_tokens(text) for t in pair}
        calls, original = [], math.lcm
        monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or original(*args))
        d = parse_diagram(text)
        # one step per distinct denominator, and no second lcm later
        assert len(calls) == len(denominators) > 1
        assert d.curve.scaled[0] == original(*denominators)
        assert validate(d).is_valid and invariant_values(d)
        assert serialize_diagram(d) == text
        assert len(calls) == len(denominators)

    @staticmethod
    def count_formatting(monkeypatch) -> list:
        calls, original = [], diagram._rational_text
        monkeypatch.setattr(diagram, "_rational_text",
                            lambda p, q: calls.append((p, q)) or original(p, q))
        return calls

    def test_canonical_text_writes_back_unformatted(self, monkeypatch):
        text = LADDER_K8.read_text(encoding="utf-8")
        calls = self.count_formatting(monkeypatch)
        assert serialize_diagram(parse_diagram(text)) == text
        assert calls == []

    def test_a_moved_curve_formats_once(self, monkeypatch):
        d = stabilize(trefoil_right(), 5, 3)
        calls = self.count_formatting(monkeypatch)
        text = serialize_diagram(d)
        assert len(calls) == 2 * d.curve.n
        assert serialize_diagram(d) == text and len(calls) == 2 * d.curve.n
        monkeypatch.undo()
        assert parse_diagram(text) == d

    def test_a_resolution_writes_its_hosts_text(self, monkeypatch):
        text = LADDER_K8.read_text(encoding="utf-8")
        d = parse_diagram(text)
        s = make_singular(d, [1, 2])  # two crossings whose over bit is free
        flips = {i: -d.signs[i] for i in (1, 2)}
        calls = self.count_formatting(monkeypatch)
        out = serialize_diagram(resolve(s, flips))
        assert calls == []
        assert vertex_tokens(out) == vertex_tokens(text) and out != text

    def test_the_line_reader_reads_ints_alone(self, monkeypatch):
        # a comment sends the rung to the line reader, whose int branch
        # reads every token the serializer writes without a Fraction
        text = LADDER_K8.read_text(encoding="utf-8")
        noted = text.replace("vertices:\n", "vertices:\n# note\n", 1)
        assert diagram._read_canonical(noted) is None
        built = self.count_fractions(monkeypatch)
        d = parse_diagram(noted)
        assert validate(d).is_valid
        assert [iv.value for iv in invariant_values(d)] == [-15, -15, 0, 23, 1]
        assert serialize_diagram(d) == text
        assert built == []
        monkeypatch.undo()
        assert d == parse_diagram(text)

    @pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.name)
    def test_points_and_text_give_one_curve(self, path):
        text = path.read_text(encoding="utf-8")
        points = tuple(Point(Fraction(x), Fraction(z)) for x, z in vertex_tokens(text))
        built, parsed = PolyCurve(points), parse_diagram(text).curve
        assert built == parsed and hash(built) == hash(parsed)
        assert built.vertices == parsed.vertices == points
        assert all(type(c) is Fraction for p in parsed.vertices for c in p)
        assert built.scaled == parsed.scaled
        assert built.n == parsed.n == len(points)
        turned = PolyCurve(points[1:] + points[:1])  # the same L and other ints
        assert turned.scaled[0] == parsed.scaled[0] and turned != parsed
        assert reversed_curve(parsed) == reversed_curve(built) == PolyCurve(
            points[:1] + points[:0:-1])


class TestParseWorkLimits:
    # Each limit is patched low, so no test parses an extreme file.
    def test_vertex_count(self, monkeypatch):
        monkeypatch.setattr("transknot.diagram.MAX_VERTICES", 9)
        with pytest.raises(ParseError, match="more than 9 vertices") as exc:
            parse_diagram(U_MINUS_TEXT)
        assert exc.value.line == 13  # the tenth vertex
        monkeypatch.setattr("transknot.diagram.MAX_VERTICES", 10)
        assert parse_diagram(U_MINUS_TEXT) == u_minus()

    def test_distinct_denominator_bits(self, monkeypatch):
        # denominators 3 and 4 have the 4-bit lcm 12, and 3 alone the lcm 3
        monkeypatch.setattr("transknot.diagram.MAX_DENOMINATOR_BITS", 3)
        with pytest.raises(ParseError, match="lcm of the denominators exceeds 3 bits"):
            parse_diagram(triangle_text("1/3", "1/4"))
        parse_diagram(triangle_text("1/3", "2/3"))
        monkeypatch.setattr("transknot.diagram.MAX_DENOMINATOR_BITS", 4)
        parse_diagram(triangle_text("1/3", "1/4"))
        # 1, 2, 4 and 8 take 1 + 2 + 3 + 4 bits in all, but their lcm 8 only 4
        text = ("transverse-diagram/1\ncoorientation: +\nvertices:\n"
                "1/2 0\n1/4 1/8\n0 1\nover:\nend\n")
        assert parse_diagram(text).curve.scaled[0] == 8

    def test_chained_stabilizations_parse_back(self, monkeypatch):
        # the distinct denominators of the third step sum to 3,066 bits,
        # while their lcm has 92
        monkeypatch.setattr("transknot.diagram.MAX_DENOMINATOR_BITS", 1000)
        d = trefoil_right()
        for edge in (4, 607, 1115):
            d = parse_diagram(serialize_diagram(stabilize(d, edge, 100)))
        assert d.curve.n == 3015
        assert d.curve.scaled[0].bit_length() == 92

    @staticmethod
    def pairs_before_each_box(curve) -> list[int]:
        """For each edge box in the sweep's order, by xlo, the number of
        pairs of meeting boxes the sweep has found once it is done with
        that box: it pairs each box with the later ones that meet it."""
        boxes = sorted((b[0], b[2], b[3], b[1], s) for s, b in enumerate(curve.edge_boxes))
        found, out = 0, []
        for pos, (_, zlo, zhi, xhi, _) in enumerate(boxes):
            found += sum(1 for xlo, lo, hi, _, _ in boxes[pos + 1:]
                         if xlo <= xhi and lo <= zhi and hi >= zlo)
            out.append(found)
        return out

    def test_edge_pairs_stop_the_sweep(self, monkeypatch):
        # the sixth pair is found while sweeping from the box at which
        # the count first passes 5, and the sweep stops there
        found = self.pairs_before_each_box(u_minus().curve)
        stop = next(pos for pos, count in enumerate(found) if count > 5)
        assert stop < len(found) - 1
        starts = count_bisections(monkeypatch)
        monkeypatch.setattr("transknot.diagram.MAX_EDGE_PAIRS", 5)
        with pytest.raises(ParseError, match="more than 5 pairs of edges") as exc:
            parse_diagram(U_MINUS_TEXT)
        assert exc.value.violations == []
        assert starts == list(range(1, stop + 2))

    def test_edge_pairs_at_the_limit_are_swept_once(self, monkeypatch):
        pairs = len(list(box_overlapping_pairs(u_minus().curve.edge_boxes)))
        assert self.pairs_before_each_box(u_minus().curve)[-1] == pairs
        starts = count_bisections(monkeypatch)
        monkeypatch.setattr("transknot.diagram.MAX_EDGE_PAIRS", pairs)
        d = parse_diagram(U_MINUS_TEXT)
        assert validate(d).is_valid
        assert starts == list(range(1, d.curve.n + 1))

    def test_largest_command_line_stabilization_parses(self):
        d = parse_diagram(serialize_diagram(stabilize(trefoil_right(), 1, MAX_COUNT)))
        assert d.curve.n == 10_015 < MAX_VERTICES
        assert d.curve.scaled[0].bit_length() == 25 < MAX_DENOMINATOR_BITS
        assert len(list(box_overlapping_pairs(d.curve.edge_boxes))) == 29_034 < MAX_EDGE_PAIRS


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
