"""Exact planar geometry over the rationals.

There is no epsilon anywhere: parallel means exactly parallel, interior
means strictly interior.  The predicates take ``fractions.Fraction``
points, and the division-free ones (``vec``, ``cross``, ``dot``,
``pair_determinants``, ``segment_crossing``, ``point_in_open_segment``,
``box``, ``in_open_cone``, ``in_closed_cone``, ``corner_sweep_contains``,
``turn_sign``, ``same_direction``, ``is_parallel``) take int points and
vectors just as well; the last paragraph says which of them the package
runs.  It runs those on ints: the all-pairs loops on a curve's own data,
``PolyCurve.scaled``, its vertices times the lcm of their denominators,
passed as plain (x, z) tuples to pair predicates that read them by index
and allocate nothing, and its direction tests on
``PolyCurve.int_directions``, the differences of those ints, which are
positive multiples of the true directions and so give every sign
exactly.  On ints ``/`` is true division and would put a float into a
decision, so none of these predicates divides.

Every test on a pair of edges is decided by the three orientation
determinants of ``pair_determinants``: for edges a -> a + e and
c -> c + f they are e×f, (c - a)×f and (c - a)×e, and the crossing,
both vertex-on-open-edge contacts and a collinear overlap are sign and
range tests on them.  The curve's pair pass (``diagram._crossing_scan``)
takes them inline, once per pair, and keeps none of them: only the
crossings it finds and the violations.  ``pair_determinants``,
``segment_crossing`` and ``point_in_open_segment`` are the references
the tests check those derivations against.

The loops pair features by the closed boxes (xlo, xhi, zlo, zhi) of
``box``, in box sweeps: ``box_overlapping_pairs`` within one set, and
``box_meeting_pairs`` for a red set against a blue one.  Skipping the
pairs whose boxes are apart is exact: a point on a segment lies in its
box, two segments that cross or overlap have meeting boxes, and a
distance is at least the larger of the x-gap and the z-gap of the two
boxes.  The pair pass runs the sweep of ``box_overlapping_pairs``
inline over the edge boxes only: a vertex lies in the closed box of
the edge it starts, so every vertex fact is found at a pair of edges.
Only ``diagram.least_dist2`` runs the two sweeps here: it sweeps
points, which need not be vertices, against edges, with
``box_meeting_pairs``, and its spots among themselves.  The
package measures distances on ints too: ``diagram.least_dist2`` is its
only distance routine, and ``halvings`` compares ints, split once from
its int or Fraction arguments.

So the package runs ``vec``, ``cross``, ``dot``, ``sign``, ``box``, the
two box sweeps and ``halvings``.  Its one corner rule, whether a
corner's sweep passes a direction and which way the corner turns, is
``transversality.corner_turns``, and its one cone rule, whether a
crossing's tangent cone holds the forbidden vertical, is
``transversality.forced_over``, both on int directions.  The rest have
no caller in the package outside this module and stay as the tests'
references: the pair pass is checked against ``pair_determinants``, and
the int kernel against ``segment_crossing``, ``point_in_open_segment``,
``segment_intersection``, ``dist2``, ``point_segment_dist2``,
``in_open_cone`` and ``in_closed_cone``; the corner walk and condition 1
against ``corner_sweep_contains``, ``turn_sign``, ``same_direction`` and
``is_parallel``; and ``scale`` and ``neg`` build the tests' vectors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import DegenerateConeError, ReversalError


class Point(NamedTuple):
    x: Fraction
    z: Fraction


class Vec(NamedTuple):
    x: Fraction
    z: Fraction


def vec(p: Point, q: Point) -> Vec:
    """Displacement from p to q, read by index from points or tuples."""
    return Vec(q[0] - p[0], q[1] - p[1])


def scale(d: Vec, s: Fraction) -> Vec:
    return Vec(d.x * s, d.z * s)


def neg(d: Vec) -> Vec:
    return Vec(-d.x, -d.z)


def cross(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def sign(a) -> int:
    return (a > 0) - (a < 0)


def is_parallel(u: Vec, v: Vec) -> bool:
    return cross(u, v) == 0


def same_direction(u: Vec, v: Vec) -> bool:
    """True when u and v are positive multiples of one another."""
    return cross(u, v) == 0 and dot(u, v) > 0


def pair_determinants(a: Point, e: Vec, c: Point, f: Vec) -> tuple:
    """(den, s, t, wx, wz) for the segments a -> a + e and c -> c + f,
    with w = (wx, wz) = c - a: the orientation determinants den = e×f,
    s = w×f and t = w×e, read by index from points or tuples.

    Every pair test decides on these (Cramer's rule): the segments cross
    at a + (s/den)e exactly when 0 < s/den < 1 and 0 < t/den < 1, which
    is ``segment_crossing``; c lies inside a -> a + e exactly when t = 0
    and 0 < w·e < e·e, and a inside c -> c + f exactly when s = 0 and
    0 < -w·f < f·f, which is ``point_in_open_segment``; for e non-zero,
    the two lie on one line exactly when den = t = 0.  Division-free.
    """
    wx, wz = c[0] - a[0], c[1] - a[1]
    ex, ez = e[0], e[1]
    fx, fz = f[0], f[1]
    return ex * fz - ez * fx, wx * fz - wz * fx, wx * ez - wz * ex, wx, wz


def segment_crossing(a: Point, b: Point, c: Point, d: Point):
    """Where the open segments ab and cd cross, as (num, den).

    den > 0 and the crossing is a + (num/den)(b - a).  Returns None for
    parallel or collinear segments and for contacts at an endpoint: only
    a transversal meeting of the two interiors counts.  Division-free.
    """
    ax, az = a[0], a[1]
    ex, ez = b[0] - ax, b[1] - az
    fx, fz = d[0] - c[0], d[1] - c[1]
    den = ex * fz - ez * fx
    if den == 0:
        return None
    wx, wz = c[0] - ax, c[1] - az
    num = wx * fz - wz * fx
    other = wx * ez - wz * ex
    if den < 0:
        den, num, other = -den, -num, -other
    if 0 < num < den and 0 < other < den:
        return num, den
    return None


def segment_intersection(
    a: Point, b: Point, c: Point, d: Point
) -> Optional[Point]:
    """Intersection point of the open segments ab and cd, or None as
    for ``segment_crossing``."""
    hit = segment_crossing(a, b, c, d)
    if hit is None:
        return None
    t = Fraction(*hit)
    return Point(a.x + t * (b.x - a.x), a.z + t * (b.z - a.z))


def box(a: Point, b: Point) -> tuple:
    """The closed box (xlo, xhi, zlo, zhi) of the segment ab."""
    ax, az, bx, bz = a[0], a[1], b[0], b[1]
    xlo, xhi = (ax, bx) if ax <= bx else (bx, ax)
    zlo, zhi = (az, bz) if az <= bz else (bz, az)
    return xlo, xhi, zlo, zhi


def box_overlapping_pairs(boxes, reach=0) -> Iterator[tuple[int, int]]:
    """Index pairs (s, t), s < t, of the closed boxes ``boxes[s] =
    (xlo, xhi, zlo, zhi)`` whose gaps in x and in z are both at most
    ``reach``; with reach 0, the pairs of boxes that meet.

    A sort-by-x sweep (Shamos and Hoey) with the filter step of
    rectangle-intersection reporting (Six and Wood): after sorting by
    xlo, each box is paired with the ones whose xlo lies in
    [its xlo, its xhi + reach], found by bisection, and a candidate is
    dropped on its z-gap before it is yielded.  Two features whose boxes
    are further apart than reach in either axis are further apart than
    reach in the plane, so no pair that a predicate or a distance bound
    needs is ever skipped.
    """
    items = sorted((b[0], b[2], b[3], b[1], s) for s, b in enumerate(boxes))
    xlos = [item[0] for item in items]
    for pos, (_, zlo, zhi, xhi, s) in enumerate(items):
        below, above = zlo - reach, zhi + reach
        for _, lo, hi, _, t in items[pos + 1:bisect_right(xlos, xhi + reach, pos + 1)]:
            if lo <= above and hi >= below:
                yield (s, t) if s < t else (t, s)


def box_meeting_pairs(red, blue, reach=0) -> Iterator[tuple[int, int]]:
    """Each index pair (r, b), exactly once, of a red box ``red[r]`` and
    a blue one ``blue[b]``, both (xlo, xhi, zlo, zhi), whose gaps in x
    and in z are both at most reach >= 0.

    The two-colour case of ``box_overlapping_pairs``: with each colour
    sorted by xlo, a red is paired with the blues whose xlo lies in
    [xlo_r, xhi_r + reach] and a blue with the reds whose xlo lies in
    (xlo_b, xhi_b + reach], by bisection, and a candidate is dropped on
    its z-gap; no same-colour pair is formed.
    """
    reds = sorted((b[0], b[2], b[3], r) for r, b in enumerate(red))
    blues = sorted((b[0], b[2], b[3], k) for k, b in enumerate(blue))
    red_lo = [item[0] for item in reds]
    blue_lo = [item[0] for item in blues]
    for r, (xlo, xhi, zlo, zhi) in enumerate(red):
        below, above = zlo - reach, zhi + reach
        for _, lo, hi, b in blues[bisect_left(blue_lo, xlo):bisect_right(blue_lo, xhi + reach)]:
            if lo <= above and hi >= below:
                yield r, b
    for b, (xlo, xhi, zlo, zhi) in enumerate(blue):
        below, above = zlo - reach, zhi + reach
        for _, lo, hi, r in reds[bisect_right(red_lo, xlo):bisect_right(red_lo, xhi + reach)]:
            if lo <= above and hi >= below:
                yield r, b


def in_open_cone(u: Vec, t1: Vec, t2: Vec) -> bool:
    """Whether u lies strictly inside the positive cone spanned by t1, t2.

    Writing u = a*t1 + b*t2, membership means a > 0 and b > 0.  The
    decomposition requires t1, t2 to be linearly independent; otherwise
    DegenerateConeError is raised.  By Cramer's rule a and b are
    cross(u, t2) and cross(t1, u) over cross(t1, t2), so only signs are
    compared and nothing is divided.
    """
    s = sign(cross(t1, t2))
    if s == 0:
        raise DegenerateConeError("cone generators are parallel")
    return sign(cross(u, t2)) == s and sign(cross(t1, u)) == s


def in_closed_cone(u: Vec, t1: Vec, t2: Vec) -> bool:
    """Like in_open_cone but including the boundary rays (a, b >= 0)."""
    s = sign(cross(t1, t2))
    if s == 0:
        raise DegenerateConeError("cone generators are parallel")
    return sign(cross(u, t2)) in (0, s) and sign(cross(t1, u)) in (0, s)


def corner_sweep_contains(d_in: Vec, d_out: Vec, u: Vec) -> bool:
    """Whether a corner's tangent sweep passes through direction u.

    At a corner the tangent rotates from d_in to d_out through the
    unique angle of absolute value < pi.  The sweep is the open sector
    between the two directions on the side of that rotation; u is in it
    iff it lies strictly between d_in and d_out.  A straight corner
    (d_out parallel to d_in) sweeps nothing; an exact reversal has no
    well-defined short rotation and raises ReversalError.
    """
    c = cross(d_in, d_out)
    if c == 0:
        if dot(d_in, d_out) < 0:
            raise ReversalError("corner reverses direction exactly")
        return False
    if c > 0:
        return cross(d_in, u) > 0 and cross(u, d_out) > 0
    return cross(d_in, u) < 0 and cross(u, d_out) < 0


def turn_sign(d_in: Vec, d_out: Vec) -> int:
    """+1 for a left (counterclockwise) corner, -1 for right, 0 straight.

    Raises ReversalError on an exact reversal.
    """
    c = cross(d_in, d_out)
    if c == 0 and dot(d_in, d_out) < 0:
        raise ReversalError("corner reverses direction exactly")
    return sign(c)


def point_in_open_segment(p: Point, a: Point, b: Point) -> bool:
    """Whether p lies on segment ab strictly between the endpoints."""
    ax, az = a[0], a[1]
    ex, ez = b[0] - ax, b[1] - az
    wx, wz = p[0] - ax, p[1] - az
    if ex * wz - ez * wx != 0:
        return False
    return 0 < wx * ex + wz * ez < ex * ex + ez * ez


def halvings(size2, room2) -> int:
    """The least e >= 0 with 16 * size2 <= room2 * 4**e, for room2 > 0:
    halved e times, a vector of squared length size2 is at most a
    quarter as long as a distance of squared length room2.  Each is an
    int or a Fraction, split once into ints: with size2 = a/b and room2 =
    p/q, the test is 16*a*q <= (p*b) << 2e."""
    a, b = size2.as_integer_ratio()
    p, q = room2.as_integer_ratio()
    need, room, e = 16 * a * q, p * b, 0
    while need > room:
        room <<= 2
        e += 1
    return e


def dist2(p: Point, q: Point) -> Fraction:
    dx = p.x - q.x
    dz = p.z - q.z
    return dx * dx + dz * dz


def point_segment_dist2(p: Point, a: Point, b: Point) -> Fraction:
    """Exact squared distance from p to the closed segment ab."""
    d = vec(a, b)
    dd = dot(d, d)
    if dd == 0:
        return dist2(p, a)
    t = dot(vec(a, p), d) / dd
    if t <= 0:
        return dist2(p, a)
    if t >= 1:
        return dist2(p, b)
    q = Point(a.x + t * d.x, a.z + t * d.z)
    return dist2(p, q)
