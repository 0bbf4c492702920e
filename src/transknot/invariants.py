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

from itertools import combinations
from typing import NamedTuple

from .diagram import (
    Crossing,
    TransverseDiagram,
    min_feature_separation2,
)
from .errors import OracleError, TransknotError
from .geometry import (
    Vec,
    box_meeting_pairs,
    cross,
    dot,
    halvings,
    pair_determinants,
    sign,
)
from .transversality import regular_direction, require_valid, whitney_index


class InvariantValue(NamedTuple):
    name: str
    value: int


def crossing_sign(d: TransverseDiagram, c: Crossing) -> int:
    """+1 or -1; the sign of cross(t_over, t_under), see module docs,
    taken on the curve's int directions."""
    dirs = d.curve.int_directions
    s = sign(cross(dirs[c.over_edge - 1], dirs[c.under_edge - 1]))
    if s == 0:
        raise TransknotError(
            f"crossing of edges {c.lo} and {c.hi} has parallel tangents"
        )
    return s


def writhe(d: TransverseDiagram) -> int:
    return sum(d.signs)


def self_linking(d: TransverseDiagram) -> int:
    """Self-linking (Bennequin) number of a valid transverse diagram.

    Equals the writhe: the framing push-off shifts the knot in the
    viewing direction, which pairs every diagram crossing with two
    equal-sign knot-to-copy crossings (see pushoff_linking_oracle).
    """
    require_valid(d)
    return writhe(d)


def _pushoff_once(d: TransverseDiagram, u: Vec, e: int):
    """The oracle at offset u / 2**e; None signals a degenerate contact
    or an intersection pattern other than the one the offset must give.

    Runs on the curve's scaled vertices refined by 2**e, on which the
    offset is the int vector L·u and the edge directions are the
    ``int_directions`` refined by 2**e too, and sweeps the original
    edges against the copy edges, pairing only those whose closed boxes
    meet.  One ``pair_determinants`` call on each pair (original edge r,
    copy edge b), r running a -> a + e and b running c -> c + f, with
    w = c - a, decides all three of its tests: the start of b on the
    closed edge r (t = 0 and 0 <= w·e <= e·e), the start of r on the
    open edge b (s = 0 and 0 < -w·f < f·f), and the crossing of the two
    edges.  No test is lost by pairing edges only:

    - A vertex lies in the closed box of the edge it starts, and a
      vertex on a segment lies in that segment's box, so the two boxes
      meet and every vertex-against-edge contact is tested at a pair
      the sweep yields.  Crossing edges meet in their boxes too.
    - An edge and its own copy are parallel, den = 0, so they never
      cross and need no case of their own.
    - With s and t both non-zero neither start lies on the other edge,
      and with either 0 the edges do not cross, so a pair is tested for
      contacts or for a crossing, never both.
    - The result is None exactly when some contact test or hit check
      fails, and the signed total is a sum over the same edge-copy
      hits, so the order of the pairs does not matter.
    """
    curve = d.curve
    n = curve.n
    scale, pts = curve.scaled
    sx, sz = scale * u.x, scale * u.z
    orig = [(x << e, z << e) for x, z in pts]
    copy = [(x + sx, z + sz) for x, z in orig]
    dirs = [(x << e, z << e) for x, z in curve.int_directions]
    red = [(xlo << e, xhi << e, zlo << e, zhi << e) for xlo, xhi, zlo, zhi in curve.edge_boxes]
    blue = [(xlo + sx, xhi + sx, zlo + sz, zhi + sz) for xlo, xhi, zlo, zhi in red]

    signs = {(c.lo, c.hi): s for c, s in zip(d.crossings, d.signs)}
    hits: dict[tuple[int, int], int] = {}
    total = corner_total = 0
    for r, b in box_meeting_pairs(red, blue):
        den, s, t, wx, wz = pair_determinants(orig[r], dirs[r], copy[b], dirs[b])
        if not (s and t):
            # degenerate contacts (a vertex of one curve on the other)
            # make the intersection pattern ambiguous
            (ex, ez), (fx, fz) = dirs[r], dirs[b]
            if not t and 0 <= wx * ex + wz * ez <= ex * ex + ez * ez:
                return None
            if not s and 0 < -(wx * fx + wz * fz) < fx * fx + fz * fz:
                return None
            continue
        sgn = 1 if den > 0 else -1  # that of cross(e_r, e_b)
        if sgn < 0:
            den, s, t = -den, -s, -t
        if not (0 < s < den and 0 < t < den):
            continue
        i, j = r + 1, b + 1
        pair = (min(i, j), max(i, j))
        if pair in signs:
            # near an original crossing: the vertical order of the two
            # strands is inherited, a small shift cannot swap it, and
            # the refined and shifted edges point along 2**e times the
            # original directions, so the hit has the crossing's sign
            total += signs[pair]
            hits[pair] = hits.get(pair, 0) + 1
        elif (j - i) % n in (1, n - 1):
            # near a shared corner: the copy sits at strictly larger
            # y (the push-off direction), so the copy strand is under
            total += sgn
            corner_total += sgn
        else:
            return None  # distant edges cannot meet at a small offset

    if set(hits) != set(signs) or any(v != 2 for v in hits.values()):
        return None
    if corner_total != 0 or total % 2 != 0:
        return None
    return total // 2


def pushoff_linking_oracle(d: TransverseDiagram) -> int:
    """Linking number of d with a translated copy of itself.

    Structural check for self_linking: the copy stands in for the
    push-off along the viewing direction, whose projection offset is
    δ = u / 2**e, with u the ``regular_direction`` of the edges and e
    the least with |δ| at most a quarter of the minimum feature
    separation.  Half the signed count of knot-to-copy intersections is
    returned.  One attempt always succeeds on a valid diagram:

    - No vertex of either curve lies on the other: it would lie within
      |δ| of a non-incident edge, or δ would be parallel to an incident
      one.  Edges that neither cross nor share a vertex do not meet, as
      two disjoint segments come closest at an endpoint of one.
    - Each crossing pair (i, j) is hit exactly twice, edge i by the copy
      of edge j and j by the copy of i, with the inherited vertical
      order: a hit off either segment would put the endpoint nearest
      the moved crossing within |δ| of the other edge.
    - Corner hits occur where u or -u lies in a corner's sweep, signed
      against the corner's turn for u and with it for -u, so they sum
      to the Whitney index at -u less that at u; each is 0 on a valid
      diagram, whose tangent never points along the coorientation.

    So a failed attempt means a broken invariant: it raises OracleError.
    """
    require_valid(d)
    u = regular_direction(d.curve.int_directions)
    result = _pushoff_once(d, u, halvings(dot(u, u), min_feature_separation2(d)))
    if result is None:
        raise OracleError("no admissible push-off offset found")
    return result


def _passages(d: TransverseDiagram, base: int = 1) -> list[tuple[tuple[int, int], bool]]:
    """Crossing passages in curve order from vertex ``base``, which is
    never a crossing on a generic curve.  Each entry is ((lo, hi),
    passes_over)."""
    n = d.curve.n
    out = []
    for step in range(n):
        i = (base - 1 + step) % n + 1
        out += [((c.lo, c.hi), c.over_edge == i) for c in d.crossings_along[i - 1]]
    return out


def v2(d: TransverseDiagram, basepoint: int | None = None) -> int:
    """Casson knot invariant (the order-2 Vassiliev invariant).

    Based Gauss-diagram count: walk the curve from the basepoint, and
    for every interleaved pair of crossings A, B whose four passages
    read over(A), under(B), under(A), over(B) in walk order, add the
    product of the crossing signs.  Normalized so the unknot gives 0
    and either trefoil gives 1.

    The chords are read in walk order: ``combinations`` yields the pairs
    in the order of the dict's keys, the order of first passage, so A is
    always the chord met first and one interleaving test, a1 < b1 < a2
    < b2, finds every interleaved pair.

    The walk starts at vertex 1 by default; any vertex index 1..n may
    be given instead (the count does not depend on the choice), and
    another value raises ValueError.
    """
    if basepoint is not None and not 1 <= basepoint <= d.curve.n:
        raise ValueError(f"basepoint {basepoint} out of range 1..{d.curve.n}")
    where: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for idx, (cid, over) in enumerate(_passages(d, basepoint or 1)):
        where.setdefault(cid, []).append((idx, over))
    signs = {(c.lo, c.hi): s for c, s in zip(d.crossings, d.signs)}

    total = 0
    for one, other in combinations(where, 2):
        (a1, a_over), (a2, _) = where[one]
        (b1, b_over), (b2, _) = where[other]
        if a1 < b1 < a2 < b2 and a_over and not b_over:
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
