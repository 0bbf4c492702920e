"""Crossing signs, writhe, self-linking, a push-off oracle, and v2.

Sign convention.  A crossing is seen in the (x, z) plane; the missing
coordinate y points away from the viewer, and the strand with smaller
y is drawn on top.  Writing t_over and t_under for the plane tangents
of the top and bottom strands, the crossing sign is the orientation of
the 3-frame (T_over, T_under, v), where T_* are the space tangents and
v points from the lower strand to the upper one, i.e. v = (0, -dy, 0)
with dy > 0.  Expanding the determinant in coordinates (x, y, z):

    det[ t_over.x   *   t_over.z ]
       [ t_under.x  *   t_under.z]  =  dy * (t_over.x * t_under.z
       [ 0         -dy  0        ]           - t_over.z * t_under.x)

so the sign is the sign of cross(t_over, t_under) in the plane.  This
is the usual right-handed crossing sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .diagram import (
    Crossing,
    TransverseDiagram,
    min_feature_separation2,
)
from .errors import OracleError, TransknotError
from .geometry import (
    Point,
    Vec,
    add,
    cross,
    dot,
    is_parallel,
    point_in_open_segment,
    scale,
    segment_intersection,
    sign,
    vec,
)
from .transversality import require_valid, whitney_index


@dataclass(frozen=True)
class InvariantValue:
    name: str
    value: int


def crossing_sign(d: TransverseDiagram, c: Crossing) -> int:
    """+1 or -1; the sign of cross(t_over, t_under), see module docs."""
    t_over = d.curve.direction(c.over_edge)
    t_under = d.curve.direction(c.under_edge)
    s = sign(cross(t_over, t_under))
    if s == 0:
        raise TransknotError(
            f"crossing of edges {c.lo} and {c.hi} has parallel tangents"
        )
    return s


def writhe(d: TransverseDiagram) -> int:
    return sum(crossing_sign(d, c) for c in d.crossings)


def self_linking(d: TransverseDiagram) -> int:
    """Self-linking (Bennequin) number of a valid transverse diagram.

    Equals the writhe: the framing push-off shifts the knot in the
    viewing direction, which pairs every diagram crossing with two
    equal-sign knot-to-copy crossings (see pushoff_linking_oracle).
    """
    require_valid(d)
    return writhe(d)


def _translated_points(d: TransverseDiagram, delta: Vec) -> list[Point]:
    return [add(p, delta) for p in d.curve.vertices]


def _pushoff_once(d: TransverseDiagram, delta: Vec):
    """One oracle attempt; None signals a too-coarse or unlucky offset."""
    curve = d.curve
    n = curve.n
    orig = list(curve.vertices)
    copy = _translated_points(d, delta)

    def edge_pts(pts, i):
        return pts[(i - 1) % n], pts[i % n]

    # degenerate contacts (a vertex of one curve on the other) make the
    # intersection pattern ambiguous; reject and retry smaller
    for w in copy:
        for i in range(1, n + 1):
            a, b = edge_pts(orig, i)
            if w == a or w == b or point_in_open_segment(w, a, b):
                return None
    for w in orig:
        for i in range(1, n + 1):
            a, b = edge_pts(copy, i)
            if point_in_open_segment(w, a, b):
                return None

    by_pair = {(c.lo, c.hi): c for c in d.crossings}
    hits: dict[tuple[int, int], int] = {}
    total = 0
    corner_total = 0
    for i in range(1, n + 1):
        a, b = edge_pts(orig, i)
        ti = vec(a, b)
        for j in range(1, n + 1):
            if i == j:
                continue  # the copy of an edge is parallel to it
            c, e = edge_pts(copy, j)
            p = segment_intersection(a, b, c, e)
            if p is None:
                continue
            tj = vec(c, e)
            pair = (min(i, j), max(i, j))
            if pair in by_pair:
                # near an original crossing: the vertical order of the
                # two strands is inherited, a small shift cannot swap it
                orig_over_is_i = by_pair[pair].over_edge == i
                s = sign(cross(ti, tj)) if orig_over_is_i else sign(cross(tj, ti))
                total += s
                hits[pair] = hits.get(pair, 0) + 1
            elif (j - i) % n in (1, n - 1):
                # near a shared corner: the copy sits at strictly larger
                # y (the push-off direction), so the copy strand is under
                s = sign(cross(ti, tj))
                total += s
                corner_total += s
            else:
                return None  # distant edges cannot meet; offset too big

    if set(hits) != set(by_pair) or any(v != 2 for v in hits.values()):
        return None
    if corner_total != 0 or total % 2 != 0:
        return None
    return total // 2


def pushoff_linking_oracle(d: TransverseDiagram) -> int:
    """Linking number of d with a translated copy of itself.

    Structural check for self_linking: the copy stands in for the
    push-off along the viewing direction, whose projection offset is a
    small generic translation.  Every original crossing yields exactly
    two knot-to-copy intersections with the inherited vertical order;
    intersections near corners pair the original strand over the copy
    and cancel exactly.  Half the signed total is returned.

    The offset direction is (1, 1+k) for the least k >= 0 avoiding all
    edge directions; its length starts below a quarter of the minimum
    feature separation and is halved on every retry.
    """
    require_valid(d)

    dirs = [d.curve.direction(i) for i in range(1, d.curve.n + 1)]
    k = 0
    while any(is_parallel(Vec(Fraction(1), Fraction(1 + k)), t) for t in dirs):
        k += 1
    u = Vec(Fraction(1), Fraction(1 + k))

    m2 = min_feature_separation2(d)
    t = Fraction(1)
    while t * t * dot(u, u) > m2 / 16:
        t /= 2

    for _ in range(48):
        result = _pushoff_once(d, scale(u, t))
        if result is not None:
            return result
        t /= 2
    raise OracleError("no admissible push-off offset found")


def _passages(d: TransverseDiagram) -> list[tuple[tuple[int, int], bool]]:
    """Crossing passages in curve order from the canonical basepoint.

    The basepoint is the lexicographically least vertex (it exists and
    can never coincide with a crossing).  Each entry is ((lo, hi),
    passes_over).
    """
    curve = d.curve
    n = curve.n
    base = min(range(1, n + 1), key=lambda i: curve.vertex(i))
    return _passages_from(d, base)


def _passages_from(d: TransverseDiagram, base: int) -> list[tuple[tuple[int, int], bool]]:
    curve = d.curve
    n = curve.n
    out = []
    for step in range(n):
        i = (base - 1 + step) % n + 1
        a, b = curve.edge(i)
        ti = vec(a, b)
        on_edge = [c for c in d.crossings if i in (c.lo, c.hi)]
        on_edge.sort(key=lambda c: dot(vec(a, c.point), ti))
        for c in on_edge:
            out.append(((c.lo, c.hi), c.over_edge == i))
    return out


def v2(d: TransverseDiagram, basepoint: int | None = None) -> int:
    """Casson knot invariant (the order-2 Vassiliev invariant).

    Based Gauss-diagram count: walk the curve from the basepoint, and
    for every interleaved pair of crossings A, B whose four passages
    read over(A), under(B), under(A), over(B) in walk order, add the
    product of the crossing signs.  Normalized so the unknot gives 0
    and either trefoil gives 1.

    The basepoint defaults to the lexicographically least vertex; any
    vertex index may be forced instead (the count does not depend on
    the choice).
    """
    if basepoint is None:
        passages = _passages(d)
    else:
        passages = _passages_from(d, basepoint)
    where: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for idx, (cid, over) in enumerate(passages):
        where.setdefault(cid, []).append((idx, over))
    signs = {(c.lo, c.hi): crossing_sign(d, c) for c in d.crossings}

    total = 0
    for one, other in combinations(where, 2):
        (a1, ra1), (a2, _) = where[one]
        (b1, rb1), (b2, _) = where[other]
        if a1 < b1 < a2 < b2:
            first_over, second_under = ra1, not rb1
        elif b1 < a1 < b2 < a2:
            first_over, second_under = rb1, not ra1
        else:
            continue  # unlinked chords
        if first_over and second_under:
            total += signs[one] * signs[other]
    return total


def invariant_values(d: TransverseDiagram) -> tuple[InvariantValue, ...]:
    """The headline numbers of a valid diagram, in display order."""
    return (
        InvariantValue("writhe", writhe(d)),
        InvariantValue("sl", self_linking(d)),
        InvariantValue("whitney", whitney_index(d.curve)),
        InvariantValue("crossings", len(d.crossings)),
        InvariantValue("v2", v2(d)),
    )
