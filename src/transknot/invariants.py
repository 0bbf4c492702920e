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
is the usual right-handed crossing sign.  ``diagram.sign_for_over``
takes it on a curve's int directions, beside the over bits it reads,
and ``diagram.over_for_sign`` is the same rule the other way; the signs
here are read through it.

Push-off.  The oracle is the linking number of the knot with a copy
shifted by εu in the plane, u parallel to no edge and ε > 0
infinitesimal (simulation of simplicity).  On a valid diagram each
crossing gives two knot-to-copy hits of its sign and the corner hits
cancel, so that linking number is the writhe: the oracle returns
``self_linking``, and its docstring holds the proof.  The tests check
it by an independent route, a push-off by a finite Fraction offset.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import Crossing, TransverseDiagram, sign_for_over
from .transversality import require_valid, whitney_index


class InvariantValue(NamedTuple):
    name: str
    value: int


def crossing_sign(d: TransverseDiagram, c: Crossing) -> int:
    """+1 or -1; the ``diagram.sign_for_over`` of the crossing on d's
    curve."""
    return sign_for_over(d.curve, c.lo, c.hi, c.over)


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


def pushoff_linking_oracle(d: TransverseDiagram) -> int:
    """Linking number of d with its push-off along the viewing
    direction: the self-linking number, returned as ``self_linking(d)``.

    The push-off projects to a copy of the front shifted by εu, with u
    parallel to no edge and ε > 0 infinitesimal (simulation of
    simplicity: Edelsbrunner and Mücke, *ACM Trans. Graph.* 9(1), 1990),
    and the linking number is half the signed count of knot-to-copy
    intersections.  On a valid diagram that count is twice the writhe:

    - A pair of edges is hit only if the closed segments meet at ε = 0,
      and parallel edges are never hit.  On a generic curve two edges
      that are not adjacent meet only where they cross, in one interior
      point of both: every other contact is a genericity violation.
    - Each crossing pair (i, j) is hit exactly once in each order, edge
      i by the copy of edge j and j by the copy of i, whatever the ε
      terms: both edge fractions lie strictly inside (0, 1).  The
      vertical order of the two strands is inherited and the copy's
      edges point along the original's, so each hit has the crossing's
      sign.
    - The corner hits, at adjacent pairs, sum to 0 on every closed
      polygon with no zero edge and no exact reversal.  At a turning
      corner e -> f the copy of one edge crosses the other exactly when
      sign(u×e) != sign(u×f), and the hit counts sign(u×e); a straight
      corner is never hit.  Going round the polygon, sign(u×e) changes
      from + to - as often as from - to +, so the hits cancel.

    So the count needs no walk of its own: after ``require_valid`` it is
    the sum of the crossing signs.  The independent route, a push-off by
    a finite Fraction offset with its own intersection tests and its own
    signs, is ``ref_oracle`` in ``tests/fraction_routines.py``; the
    property tests hold it equal to the writhe on generated diagrams.
    """
    return self_linking(d)


def _chords(d: TransverseDiagram, base: int = 1) -> list[list]:
    """The Gauss diagram of ``d`` walked from vertex ``base``, which is
    never a crossing on a generic curve: one chord [first, second,
    over_first, sign] per crossing, in the order of its first passage,
    with the indices of its two passages in walk order, whether the
    first one passes over, and the crossing sign.  Built from
    ``crossings_along``, keyed by crossing index."""
    along = d.crossings_along
    open_chords: dict[int, list] = {}
    chords = []
    step = 0
    for i in [*range(base - 1, len(along)), *range(base - 1)]:
        for k in along[i]:
            if k in open_chords:
                open_chords.pop(k)[1] = step
            else:
                # edge i + 1 passes over when it is the strand the bit names
                over_first = (d.entries[k][0] == i + 1) == (d.overs[k] == "lo")
                open_chords[k] = chord = [step, None, over_first, d.signs[k]]
                chords.append(chord)
            step += 1
    return chords


def v2(d: TransverseDiagram, basepoint: int | None = None) -> int:
    """Casson knot invariant (the order-2 Vassiliev invariant).

    Based Gauss-diagram count: walk the curve from the basepoint, and
    for every interleaved pair of crossings A, B whose four passages
    read over(A), under(B), under(A), over(B) in walk order, add the
    product of the crossing signs.  Normalized so the unknot gives 0
    and either trefoil gives 1.

    The chords of ``_chords`` come in the order of first passage, so A
    is always the chord met first and one interleaving test, a1 < b1 <
    a2 < b2, finds every interleaved pair; the chords after A whose b1
    passes a2 are not read.

    The walk starts at vertex 1 by default; any vertex index 1..n may
    be given instead (the count does not depend on the choice), and
    another value raises ValueError.
    """
    if basepoint is not None and not 1 <= basepoint <= d.curve.n:
        raise ValueError(f"basepoint {basepoint} out of range 1..{d.curve.n}")
    chords = _chords(d, basepoint or 1)
    total = 0
    for k, (_, a2, a_over, a_sign) in enumerate(chords):
        if not a_over:
            continue
        for b1, b2, b_over, b_sign in chords[k + 1:]:
            if b1 > a2:
                break
            if a2 < b2 and not b_over:
                total += a_sign * b_sign
    return total


def invariant_values(d: TransverseDiagram) -> tuple[InvariantValue, ...]:
    """The headline numbers of a valid diagram, in display order."""
    return (
        InvariantValue("writhe", writhe(d)),
        InvariantValue("sl", self_linking(d)),
        InvariantValue("whitney", whitney_index(d.curve)),
        InvariantValue("crossings", len(d.entries)),
        InvariantValue("v2", v2(d)),
    )
