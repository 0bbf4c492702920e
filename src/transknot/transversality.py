"""Validity of transverse diagrams and the Whitney index.

A diagram drawn in the (x, z) plane is a valid transverse front when

1. no tangent direction points straight up, and
2. every crossing where straight up lies in the open cone spanned by
   the two tangents has sign -1 (see ``invariants``).

For the Minus coorientation both checks run on the orientation-reversed
curve, which is the same as testing straight down on the original.  The
rules these checks read are written once each, below this module: the
sign rule in ``diagram``, where ``sign_for_over`` reads a crossing's
sign from its over bit and ``over_for_sign`` picks the over bit of a
given sign, and the corner rule in ``geometry``, where ``corner_turns``
tells, on int directions, whether each corner's sweep passes a direction
and which way it turns; condition 1 and the Whitney index read it
through the curve's cached ``PolyCurve.corner_turns``.  The cone rule is
written here, once: ``forced_over`` decides on int directions whether a
crossing's tangent cone holds the forbidden vertical, and condition 2,
double-point admissibility and the random generator all read it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagram import (
    Coorientation,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    _point,
    over_for_sign,
    sort_violations,
)
from .errors import InvalidDiagramError, NongenericCurveError
from .geometry import Vec

UP = Vec(0, 1)
DOWN = Vec(0, -1)


def reference(coor: Coorientation) -> Vec:
    """The forbidden vertical: UP for Plus, DOWN (UP on the reversed curve) for Minus."""
    return UP if coor is Coorientation.PLUS else DOWN


def regular_direction(dirs) -> Vec:
    """A direction parallel to no non-zero int vector t = (tx, tz) in
    ``dirs``: the vertical UP when no t has tx = 0 and tz != 0, so that
    under Plus the Whitney index reads condition 1's corner walk, and
    otherwise the first of (1, 1), (1, 2), ... with tz != m * tx."""
    if not any(tz and not tx for tx, tz in dirs):
        return UP
    taken = {tz // tx for tx, tz in dirs if tx and tz % tx == 0}
    m = 1
    while m in taken:
        m += 1
    return Vec(1, m)


class ValidityReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


def check_condition1(curve: PolyCurve, coor: Coorientation) -> list[Violation]:
    """Violations of the no-upward-tangent condition.

    Edges (tx, tz) pointing along the forbidden vertical r =
    ``reference(coor)``, tx = 0 with tz*r.z > 0, and corners whose sweep
    passes through it, where the curve's ``corner_turns`` at r is
    non-zero, are reported.  Decided on the curve's int directions; an
    exact reversal raises ReversalError.
    """
    ref = reference(coor)
    out = [Violation(ViolationKind.UpwardEdge, edges=(i + 1,))
           for i, (tx, tz) in enumerate(curve.int_directions) if tx == 0 and tz * ref.z > 0]
    out += [Violation(ViolationKind.UpwardCorner, edges=(i or curve.n, i + 1))
            for i, turn in enumerate(curve.corner_turns(ref)) if turn]
    return sort_violations(out)


def forced_over(curve: PolyCurve, coor: Coorientation, lo: int, hi: int) -> Optional[str]:
    """The strand ("lo" or "hi") that must pass over where edges lo and
    hi cross, or None when the over bit is free.

    The bit is forced when the forbidden vertical r = ``reference(coor)``
    lies in the open cone of the two tangents (DOWN in cone(t) exactly
    when UP is in cone(-t)), and then it is the bit of sign -1.  That is
    the bit of the over strand with dx < 0 under Plus and dx > 0 under
    Minus, because that crossing has sign -1:

    - Inside the open cone both tangents have a non-zero dx, of
      opposite signs, and r = a*t_over + b*t_under with a, b > 0, so
      cross(t_over, r) = b*cross(t_over, t_under).
    - Under Plus, r = UP and the forced over strand has dx < 0, so
      cross(t_over, UP) = t_over.x < 0.
    - Under Minus, r = DOWN and the forced over strand has dx > 0, so
      cross(t_over, DOWN) = -t_over.x < 0.

    Under condition 1 no tangent points along the forbidden vertical,
    so at a free crossing it is outside the closed cone too and either
    over bit gives a valid diagram.

    The cone is decided on the curve's int directions, with no vector
    built: with a and b the directions of edges lo and hi, k = a×b,
    which is not 0 at a crossing, and r = (0, rz) the forbidden
    vertical, Cramer's rule gives r = p*a + q*b with p = r×b / k =
    -rz*bx / k and q = a×r / k = rz*ax / k, and the cone holds r exactly
    when both are positive: rz*ax*k > 0 > rz*bx*k.
    """
    (ax, az), (bx, bz) = curve.int_directions[lo - 1], curve.int_directions[hi - 1]
    k, rz = ax * bz - az * bx, reference(coor).z
    if not rz * ax * k > 0 > rz * bx * k:
        return None
    return over_for_sign(curve, lo, hi, -1)


def check_condition2(d: TransverseDiagram) -> list[Violation]:
    """Violations of the sign rule: crossings whose over bit
    ``forced_over`` forces, because their tangent cone holds the
    forbidden vertical, and which carry the other bit, of sign +1.  Read
    from the diagram's entries and bits; a point is built only for a
    violation."""
    return sort_violations(
        Violation(ViolationKind.ForbiddenCrossing, point=_point(xzd))
        for (lo, hi, xzd), bit in zip(d.entries, d.overs)
        if forced_over(d.curve, d.coorientation, lo, hi) not in (None, bit))


def validate(d: TransverseDiagram) -> ValidityReport:
    """Full validity check: genericity, then conditions 1 and 2.

    The first call stores ``check_validity(d)`` in the diagram's
    ``__dict__`` under ``validity``, as the parser stores a curve's
    ``pair_facts``, and every later call returns that report: the check
    runs once per diagram however often it is asked for.
    ``moves_singular.resolve`` stores its host's report there too.
    """
    cache = vars(d)
    if "validity" not in cache:
        cache["validity"] = check_validity(d)
    return cache["validity"]


def check_validity(d: TransverseDiagram) -> ValidityReport:
    """The check behind ``validate``, computed afresh on every call.

    Reads the curve's cached genericity and crossings.  Positional
    defects short-circuit the report, since crossing data is meaningless
    on a non-generic curve.  A diagram's crossings are its curve's, so
    there is no crossing list to check against the curve.  Conditions 1
    and 2 each return a sorted list, and condition 1's kinds, UpwardEdge
    and UpwardCorner, come before condition 2's ForbiddenCrossing in
    ``ViolationKind``, so the two lists joined are the sorted report.
    """
    if d.curve.genericity_violations:
        return ValidityReport(d.curve.genericity_violations)
    return ValidityReport(tuple(check_condition1(d.curve, d.coorientation) + check_condition2(d)))


def require_valid(d: TransverseDiagram) -> None:
    """Raise InvalidDiagramError, carrying the violations, unless d is valid."""
    report = validate(d)
    if not report.is_valid:
        raise InvalidDiagramError(report.violations)


def whitney_index(curve: PolyCurve) -> int:
    """Rotation number of the tangent direction, by sweep counting.

    Corners whose sweep passes through a reference direction r count
    +1 (counterclockwise turn) or -1 (clockwise), as
    ``geometry.corner_turns`` reports them.  r is the edges'
    ``regular_direction``; the count is the same for every direction
    parallel to no edge.  That is UP whenever no edge is vertical, and
    then the curve's ``corner_turns`` at r is the walk condition 1 reads
    under Plus.  Decided on the
    curve's int directions.  Zero edges raise NongenericCurveError, and
    an exact reversal raises ReversalError.
    """
    dirs = curve.int_directions
    if (0, 0) in dirs:
        raise NongenericCurveError(v for v in curve.genericity_violations
                                   if v.kind is ViolationKind.ZeroEdge)
    return sum(curve.corner_turns(regular_direction(dirs)))
