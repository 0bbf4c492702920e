"""Validity of transverse diagrams and the Whitney index.

A diagram drawn in the (x, z) plane is a valid transverse front when

1. no tangent direction points straight up, and
2. at every crossing where straight up lies in the open cone spanned by
   the two tangents, the strand heading up-and-right passes under.

For the Minus coorientation both checks run on the orientation-reversed
curve, which is the same as testing straight down on the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diagram import (
    Coorientation,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    crossing_mismatch,
    sort_violations,
)
from .errors import InvalidDiagramError
from .geometry import (
    Vec,
    corner_sweep_contains,
    in_open_cone,
    is_parallel,
    neg,
    same_direction,
    turn_sign,
)

UP = Vec(Fraction(0), Fraction(1))
DOWN = Vec(Fraction(0), Fraction(-1))


def _reference(coor: Coorientation) -> Vec:
    return UP if coor is Coorientation.PLUS else DOWN


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


def check_condition1(curve: PolyCurve, coor: Coorientation) -> list[Violation]:
    """Violations of the no-upward-tangent condition.

    Edges pointing along the forbidden vertical and corners whose sweep
    passes through it are reported.  For Plus the forbidden direction
    is (0,1); for Minus it is (0,-1), which is what reversing the
    curve's orientation and testing (0,1) would give.
    """
    ref = _reference(coor)
    out = []
    for i, a, b in curve.edges():
        if same_direction(Vec(b.x - a.x, b.z - a.z), ref):
            out.append(Violation(ViolationKind.UpwardEdge, edges=(i,)))
    for i, d_in, d_out in curve.corners():
        e_in = (i - 2) % curve.n + 1
        if corner_sweep_contains(d_in, d_out, ref):
            out.append(Violation(ViolationKind.UpwardCorner, edges=(e_in, i)))
    return sort_violations(out)


def forced_over(curve: PolyCurve, coor: Coorientation, lo: int, hi: int) -> Optional[str]:
    """The strand ("lo" or "hi") that must pass over where edges lo and
    hi cross, or None when the over bit is free.

    The bit is forced when straight up lies in the open cone of the two
    tangents (Minus: tangents reversed); then one tangent has dx > 0,
    the other dx < 0, and the over strand must be the dx < 0 one.  Under
    condition 1 no tangent points along the forbidden vertical, so at a
    free crossing up is outside the closed cone too and either over bit
    gives a valid diagram.
    """
    t_lo, t_hi = curve.direction(lo), curve.direction(hi)
    if coor is Coorientation.MINUS:
        t_lo, t_hi = neg(t_lo), neg(t_hi)
    if not in_open_cone(UP, t_lo, t_hi):
        return None
    return "lo" if t_lo.x < 0 else "hi"


def check_condition2(d: TransverseDiagram) -> list[Violation]:
    """Violations of the upper-right-strand-is-under rule: crossings
    whose over bit differs from the one ``forced_over`` requires."""
    out = []
    for c in d.crossings:
        forced = forced_over(d.curve, d.coorientation, c.lo, c.hi)
        if forced is not None and c.over != forced:
            out.append(Violation(ViolationKind.ForbiddenCrossing, point=c.point))
    return sort_violations(out)


def validate(d: TransverseDiagram) -> ValidityReport:
    """Full validity check: genericity, then conditions 1 and 2.

    Reads the curve's cached genericity and crossings.  Positional
    defects short-circuit the report, since crossing data is meaningless
    on a non-generic curve.  A crossing list that disagrees with the
    detected intersections is reported as CrossingMismatch.
    """
    if d.curve.genericity_violations:
        return ValidityReport(d.curve.genericity_violations)
    missing, extra = crossing_mismatch(d.curve, ((c.lo, c.hi) for c in d.crossings))
    if missing or extra:
        return ValidityReport(tuple(Violation(ViolationKind.CrossingMismatch, edges=pair)
                                    for pair in sorted(missing + extra)))
    out = check_condition1(d.curve, d.coorientation) + check_condition2(d)
    return ValidityReport(tuple(sort_violations(out)))


def require_valid(d: TransverseDiagram) -> None:
    """Raise InvalidDiagramError, carrying the violations, unless d is valid."""
    report = validate(d)
    if not report.is_valid:
        raise InvalidDiagramError(report.violations)


def whitney_index(curve: PolyCurve) -> int:
    """Rotation number of the tangent direction, by sweep counting.

    Corners whose sweep passes through a reference direction r count
    +1 (counterclockwise turn) or -1 (clockwise).  r defaults to (0,1)
    and is moved to the first of (1,1), (1,2), ... whenever some edge
    is parallel to it, so r is always a regular value.
    """
    dirs = [curve.direction(i) for i in range(1, curve.n + 1)]
    ref = UP
    n_try = 1
    while any(is_parallel(dv, ref) for dv in dirs):
        ref = Vec(Fraction(1), Fraction(n_try))
        n_try += 1
    total = 0
    for _, d_in, d_out in curve.corners():
        if corner_sweep_contains(d_in, d_out, ref):
            total += turn_sign(d_in, d_out)
    return total
