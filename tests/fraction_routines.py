"""Fraction routines that only the tests use, as references for the
routines of the package, and ``reversed_curve``, a curve move that only
the tests make."""

from fractions import Fraction

from transknot.diagram import MAX_EXPONENT, MAX_TOKEN_CHARS, PolyCurve
from transknot.errors import ParseError, TransknotError
from transknot.geometry import (
    Point,
    Vec,
    cross,
    dist2,
    dot,
    is_parallel,
    point_in_open_segment,
    point_segment_dist2,
    scale,
    segment_intersection,
    sign,
    vec,
)


def reversed_curve(curve: PolyCurve) -> PolyCurve:
    """Orientation reversal keeping the first vertex first."""
    scale, pts = curve.scaled
    return PolyCurve._from_scaled(scale, pts[:1] + pts[:0:-1])


def add(p: Point, d: Vec) -> Point:
    return Point(p.x + d.x, p.z + d.z)


def corners(curve):
    """Yield (i, d_in, d_out) for the corner at vertex i of the curve."""
    for i in range(1, curve.n + 1):
        yield i, curve.direction(i - 1), curve.direction(i)


def fraction_halvings(size2, room2) -> int:
    """``geometry.halvings`` as it was written on Fractions: the least
    e >= 0 with 16 * size2 <= room2 * 4**e."""
    e = 0
    while 16 * size2 > room2 * 4**e:
        e += 1
    return e


def fraction_token(token: str, lineno: int) -> tuple[int, int]:
    """A coordinate token as the parser read it with ``Fraction(token)``:
    its reduced (numerator, denominator), or the same ParseError."""
    if len(token) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"rational token longer than {MAX_TOKEN_CHARS} characters")
    _, e, exponent = token.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_large = False  # no exponent: Fraction rejects the token
        if too_large:
            raise ParseError(lineno, f"exponent of {token!r} exceeds {MAX_EXPONENT}")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {token!r}") from None
    if (e or "." in token) and len(str(value)) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"{token!r} written as a fraction is longer than "
                                 f"{MAX_TOKEN_CHARS} characters")
    return value.numerator, value.denominator


def ref_separation(d):
    """The least squared distance between two features of d: vertex and
    vertex, vertex and an edge it is not on, crossing and crossing."""
    curve = d.curve
    n = curve.n
    values = [dist2(a, b) for _, a, b in curve.edges()]
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if (k - i) % n not in (0, 1):
                values.append(point_segment_dist2(curve.vertex(k), *curve.edge(i)))
    pts = [c.point for c in d.crossings]
    values += [dist2(p, q) for s, p in enumerate(pts) for q in pts[s + 1:]]
    if min(values) <= 0:
        raise TransknotError("two features of the diagram coincide")
    return min(values)


def ref_pushoff_once(d, delta):
    """The signed count of knot-to-copy hits for the copy shifted by the
    Fraction offset delta, halved, by a test of every pair of a knot
    edge and a copy edge; None if a vertex lands on the other curve, a
    pair other than a crossing or a corner is hit, or the hits fall in a
    pattern no valid diagram gives.  A hit takes its sign from the
    tangents and the over bit of its crossing."""
    curve = d.curve
    n = curve.n
    orig = curve.vertices
    copy = [add(p, delta) for p in orig]

    def edge(pts, i):
        return pts[(i - 1) % n], pts[i % n]

    for w in copy:
        for i in range(1, n + 1):
            a, b = edge(orig, i)
            if w == a or w == b or point_in_open_segment(w, a, b):
                return None
    for w in orig:
        if any(point_in_open_segment(w, *edge(copy, i)) for i in range(1, n + 1)):
            return None
    by_pair = {(c.lo, c.hi): c for c in d.crossings}
    hits = {}
    total = corner_total = 0
    for i in range(1, n + 1):
        a, b = edge(orig, i)
        for j in range(1, n + 1):
            c, e = edge(copy, j)
            if i == j or segment_intersection(a, b, c, e) is None:
                continue
            ti, tj = vec(a, b), vec(c, e)
            pair = (min(i, j), max(i, j))
            if pair in by_pair:
                crossing = by_pair[pair]
                over_is_i = (crossing.lo if crossing.over == "lo" else crossing.hi) == i
                total += sign(cross(ti, tj)) if over_is_i else sign(cross(tj, ti))
                hits[pair] = hits.get(pair, 0) + 1
            elif (j - i) % n in (1, n - 1):
                total += sign(cross(ti, tj))
                corner_total += sign(cross(ti, tj))
            else:
                return None
    if set(hits) != set(by_pair) or any(v != 2 for v in hits.values()):
        return None
    if corner_total != 0 or total % 2 != 0:
        return None
    return total // 2


def ref_oracle(d):
    """The push-off oracle at a finite offset: u = (1, 1 + k) for the
    least k that makes it parallel to no edge, scaled by halvings until
    it is under a quarter of the feature separation, and halved again
    until an attempt succeeds."""
    k = 0
    while any(is_parallel(Vec(Fraction(1), Fraction(1 + k)), d.curve.direction(i))
              for i in range(1, d.curve.n + 1)):
        k += 1
    u = Vec(Fraction(1), Fraction(1 + k))
    m2 = ref_separation(d)
    t = Fraction(1)
    while t * t * dot(u, u) > m2 / 16:
        t /= 2
    for _ in range(48):
        result = ref_pushoff_once(d, scale(u, t))
        if result is not None:
            return result
        t /= 2
    raise TransknotError("no admissible push-off offset found")
