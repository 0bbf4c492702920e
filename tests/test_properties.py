"""Cross-checks by independent routes on generated diagrams.

Diagrams are drawn from ``random_valid_diagram`` seeds of either
coorientation and from their images under (x, z) -> (a*x + c,
b*x + d*z + e) with a, d > 0 and dyadic coefficients.  Such a map keeps
verticals vertical with their sense and keeps the sign of every cross
product, so it keeps the crossing pairs, validity and every invariant.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    parse_diagram,
    reversed_curve,
    serialize_diagram,
)
from transknot.errors import ParseError
from transknot.geometry import Point
from transknot.invariants import pushoff_linking_oracle, v2, writhe
from transknot.moves_singular import random_valid_diagram
from transknot.transversality import validate, whitney_index

from fraction_routines import ref_oracle

DYADIC = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-8, 8), st.integers(0, 4))
POSITIVE_DYADIC = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(1, 8),
                            st.integers(0, 4))
PROFILE = settings(derandomize=True, max_examples=100, deadline=None)


def image(d: TransverseDiagram, a, b, c, dz, e) -> TransverseDiagram:
    """d under (x, z) -> (a*x + c, b*x + dz*z + e), crossings re-detected."""
    curve = PolyCurve(tuple(Point(a * p.x + c, b * p.x + dz * p.z + e)
                            for p in d.curve.vertices))
    over = {(c.lo, c.hi): c.over for c in d.crossings}
    assert [(lo, hi) for lo, hi, _ in curve.detected_crossings] == list(over)
    return TransverseDiagram(curve, d.coorientation, tuple(
        Crossing(lo, hi, p, over[(lo, hi)]) for lo, hi, p in curve.detected_crossings))


@st.composite
def diagrams(draw) -> TransverseDiagram:
    d = random_valid_diagram(draw(st.integers(0, 199)), draw(st.sampled_from(Coorientation)))
    if draw(st.booleans()):
        return d
    moved = image(d, draw(POSITIVE_DYADIC), draw(DYADIC), draw(DYADIC),
                  draw(POSITIVE_DYADIC), draw(DYADIC))
    assert validate(moved).is_valid
    assert (writhe(moved), v2(moved), whitney_index(moved.curve)) == \
        (writhe(d), v2(d), whitney_index(d.curve))
    return moved


@PROFILE
@given(diagrams())
def test_parse_inverts_serialize(d):
    assert parse_diagram(serialize_diagram(d)) == d


@PROFILE
@given(diagrams(), st.data())
def test_minus_validity_is_reversed_plus_validity(d, data):
    # edge i of the curve is edge n + 1 - i of the reversed one, run
    # backwards, so the crossing of lo and hi keeps its over strand
    flips = data.draw(st.sets(st.sampled_from(d.crossings))) if d.crossings else set()
    crossings = [Crossing(c.lo, c.hi, c.point, c.over if c not in flips else
                          "hi" if c.over == "lo" else "lo") for c in d.crossings]
    n = d.curve.n
    minus = TransverseDiagram(d.curve, Coorientation.MINUS, crossings)
    plus = TransverseDiagram(reversed_curve(d.curve), Coorientation.PLUS, [
        Crossing(n + 1 - c.hi, n + 1 - c.lo, c.point, "hi" if c.over == "lo" else "lo")
        for c in crossings])
    kinds = [sorted(v.kind.value for v in validate(e).violations) for e in (minus, plus)]
    assert kinds[0] == kinds[1]


@PROFILE
@given(diagrams())
def test_oracle_is_the_writhe(d):
    # the push-off at a finite Fraction offset, with its own intersection
    # tests and its own signs, read from the over bits and the tangents
    assert pushoff_linking_oracle(d) == ref_oracle(d) == writhe(d)


@PROFILE
@given(diagrams())
def test_v2_does_not_depend_on_the_basepoint(d):
    assert {v2(d, k) for k in range(1, d.curve.n + 1)} == {v2(d)}


def overwritten(text: str, pos: int, junk: bytes) -> bytes:
    data = text.encode()
    return data[:pos] + junk + data[pos + len(junk):]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda seed, cut, junk: serialize_diagram(random_valid_diagram(seed))
              .encode()[:cut] + junk, st.integers(0, 199), st.integers(0, 400),
              st.binary(max_size=40)),
    st.builds(lambda seed, pos, junk: overwritten(serialize_diagram(random_valid_diagram(seed)),
                                                  pos, junk),
              st.integers(0, 199), st.integers(0, 400), st.binary(min_size=1, max_size=4)),
))
def test_random_bytes_raise_only_parse_errors(data):
    try:
        parse_diagram(data.decode("latin-1"))
    except ParseError:
        pass
