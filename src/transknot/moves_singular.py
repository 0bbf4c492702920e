"""Double-loop stabilization, singular diagrams, and order checking.

Stabilization splices a fixed detour into an edge of a valid diagram.
The detour leaves the host edge, winds through a double loop that
crosses itself twice with sign -1 at both crossings, and rejoins the
edge travelling in the original direction with net tangent turning 0.
Each splice therefore adds exactly two negative crossings and drops
the writhe (and self-linking number) by 2 while leaving the Whitney
index and v2 untouched.

A singular diagram is a diagram in which some crossings have their
over bit erased ("double points").  Erasure is only permitted where
both over bits yield a valid diagram, i.e. where the coorientation
direction lies outside the closed tangent cone.  Resolving every
double point and summing the resulting invariant values with the
parity sign of the resolution yields the defect whose vanishing on
(n+1)-point diagrams is the evidence that an invariant has order <= n.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .diagram import Coorientation, Crossing, PolyCurve, TransverseDiagram
from .errors import (
    FamilyArityError,
    HostTooShortError,
    InadmissibleDoublePointError,
    TransknotError,
)
from .fixtures import trefoil_right
from .geometry import (
    Point,
    Vec,
    corner_sweep_contains,
    cross,
    dist2,
    dot,
    is_parallel,
    neg,
    point_segment_dist2,
    scale,
)
from .invariants import self_linking, v2, writhe
from .transversality import DOWN, UP, forced_over, require_valid, validate

# --- the canonical detour ---------------------------------------------------

# Drawn for a horizontal host running left to right under the Plus
# coorientation.  The path enters at (0,0), exits at (24,0), and its
# tangent directions all avoid straight up, as do all corner sweeps;
# net turning is zero.  It crosses itself exactly twice:
#
#   at (2,2):      first ascent x returning strand; up lies in the open
#                  tangent cone, so the over bit is forced (the
#                  leftward strand on top), sign -1;
#   at (5/6,5/6):  first ascent x final descent; up is outside the
#                  closed cone, the loop is drawn with the ascent on
#                  top, sign -1.
#
# Both over strands are recorded by direction so the bits survive
# affine images of the detour.
_F = Fraction

_DETOUR_PATH: tuple[Point, ...] = (
    Point(_F(0), _F(0)),
    Point(_F(5), _F(5)),
    Point(_F(9), _F(5)),
    Point(_F(11), _F(1)),
    Point(_F(4), _F(0)),
    Point(_F(1), _F(3)),
    Point(_F(1, 2), _F(5, 2)),
    Point(_F(6, 5), _F(-1)),
    Point(_F(23), _F(-1)),
    Point(_F(24), _F(0)),
)

# (crossing point, direction of the strand drawn on top)
_DETOUR_CROSSINGS: tuple[tuple[Point, Vec], ...] = (
    (Point(_F(2), _F(2)), Vec(_F(-3), _F(3))),
    (Point(_F(5, 6), _F(5, 6)), Vec(_F(1), _F(1))),
)

_DETOUR_SPAN = _F(24)
_DETOUR_CENTER = Vec(_F(12), _F(0))


def _clearance2(d: TransverseDiagram, host: int, p: Point) -> Fraction:
    """Squared distance from p to every feature except the host edge.

    Features are vertices, edges other than the host, and crossing
    points (including those that sit on the host edge itself).  A
    detour confined to a quarter of this radius around p cannot touch
    anything it should not.
    """
    curve = d.curve
    best = None
    for v in curve.vertices:
        best = dist2(p, v) if best is None else min(best, dist2(p, v))
    for i, a, b in curve.edges():
        if i == host:
            continue
        best = min(best, point_segment_dist2(p, a, b))
    for c in d.crossings:
        best = min(best, dist2(p, c.point))
    return best


def _anchor_fractions() -> Iterable[Fraction]:
    """Dyadic points of the host edge, midpoint first."""
    for depth in range(1, 7):
        step = Fraction(1, 2**depth)
        for k in range(1, 2**depth, 2):
            yield k * step


def _pick_anchor(d: TransverseDiagram, host: int) -> tuple[Point, Fraction, Fraction]:
    """An interior point of the host edge with positive clearance.

    The midpoint works unless a crossing sits exactly there; then the
    search walks deeper dyadic subdivisions.  Returns (anchor, fraction
    along the edge, squared clearance).
    """
    a, _ = d.curve.edge(host)
    direction = d.curve.direction(host)
    for frac in _anchor_fractions():
        anchor = Point(a.x + frac * direction.x, a.z + frac * direction.z)
        r2 = _clearance2(d, host, anchor)
        if r2 > 0:
            return anchor, frac, r2
    raise HostTooShortError(f"no clear anchor point found on edge {host}")


def _insert_detour(d: TransverseDiagram, host: int) -> tuple[TransverseDiagram, int]:
    """Splice one detour into the (non-vertical) host edge.

    Returns the new diagram and the index of the part of the host edge
    after the detour, which is where a subsequent detour goes.
    """
    curve = d.curve
    direction = d.curve.direction(host)
    if direction.x == 0:
        raise TransknotError(f"edge {host} is vertical; bend it before splicing")

    # The detour template is drawn for direction (1,0) under Plus.  The
    # linear map (1,0) -> host direction, (0,1) -> (0, +-1) transports
    # it to any non-vertical host: verticals stay vertical, so the
    # no-upward-tangent conditions transport as well.  When the map
    # reverses orientation the two over bits flip, which restores both
    # crossing signs to -1.
    sigma = _F(1) if d.coorientation is Coorientation.PLUS else _F(-1)

    def transform(u: Vec) -> Vec:
        return Vec(direction.x * u.x, direction.z * u.x + sigma * u.z)

    flips = sigma * direction.x < 0

    anchor, frac, r2 = _pick_anchor(d, host)

    deviations = [transform(Vec(p.x - _DETOUR_CENTER.x, p.z)) for p in _DETOUR_PATH]
    deviations += [transform(Vec(p.x - _DETOUR_CENTER.x, p.z)) for p, _ in _DETOUR_CROSSINGS]
    maxdev2 = max(dot(u, u) for u in deviations)
    span = min(frac, 1 - frac)

    s = Fraction(1)
    for _ in range(256):
        if 16 * s * s * maxdev2 <= r2 and _DETOUR_SPAN * s <= span:
            break
        s /= 2
    else:
        raise HostTooShortError(f"no safe detour scale for edge {host}")

    def place(p: Point) -> Point:
        u = transform(Vec(p.x - _DETOUR_CENTER.x, p.z))
        return Point(anchor.x + s * u.x, anchor.z + s * u.z)

    verts = list(curve.vertices)
    verts[host:host] = [place(p) for p in _DETOUR_PATH]
    new_curve = PolyCurve(tuple(verts))

    # Over bits survive by direction: every pre-existing crossing keeps
    # its point and its strand directions (host fragments keep the host
    # direction), and the two detour crossings carry their own.
    old_over_dir = {c.point: curve.direction(c.over_edge) for c in d.crossings}
    detour_over = {place(p): transform(u) for p, u in _DETOUR_CROSSINGS}

    crossings = []
    for lo, hi, p in new_curve.detected_crossings:
        if p in old_over_dir:
            over_dir, flip = old_over_dir[p], False
        elif p in detour_over:
            over_dir, flip = detour_over[p], flips
        else:
            raise TransknotError(f"detour created an unexpected crossing at {p}")
        over_is_lo = is_parallel(new_curve.direction(lo), over_dir)
        if over_is_lo == is_parallel(new_curve.direction(hi), over_dir):
            raise TransknotError(f"over strand at {p} is ambiguous after splicing")
        crossings.append(Crossing(lo, hi, p, "lo" if over_is_lo != flip else "hi"))

    out = TransverseDiagram(new_curve, d.coorientation, tuple(crossings))
    return out, host + len(_DETOUR_PATH)


def _bend_vertical(d: TransverseDiagram, host: int) -> tuple[TransverseDiagram, int]:
    """Split a vertical host edge into two slanted halves.

    A valid diagram only carries verticals pointing along the allowed
    sense (down for Plus, up for Minus), and nudging the split vertex
    sideways by a small enough amount keeps every validity and
    genericity predicate satisfied; the offset is halved until the
    result checks out.  Returns the bent diagram and the first half.
    """
    if d.curve.direction(host).x != 0:
        raise TransknotError(f"edge {host} is not vertical")
    anchor, _, r2 = _pick_anchor(d, host)

    h = Fraction(1)
    while 16 * h * h > r2:
        h /= 2

    for _ in range(48):
        bent = _transfer_after_bend(d, host, Point(anchor.x + h, anchor.z))
        if bent is not None and validate(bent).is_valid:
            return bent, host
        h /= 2
    raise HostTooShortError(f"could not bend vertical edge {host}")


def _transfer_after_bend(
    d: TransverseDiagram, host: int, apex: Point
) -> Optional[TransverseDiagram]:
    """Rebuild the crossing list after bending the host at apex.

    Crossings away from the host keep their points; crossings on the
    host move slightly and land on exactly one of the two halves.  None
    is returned whenever the intersection pattern fails to match that
    expectation, which tells the caller to shrink the bend.
    """
    verts = list(d.curve.vertices)
    verts.insert(host, apex)
    new_curve = PolyCurve(tuple(verts))
    if new_curve.genericity_violations:
        return None

    def shift(e: int) -> int:
        return e if e < host else e + 1

    by_pair = {(lo, hi): p for lo, hi, p in new_curve.detected_crossings}
    crossings = []
    seen = set()
    for c in d.crossings:
        if host not in (c.lo, c.hi):
            pair = (shift(c.lo), shift(c.hi))
            if by_pair.get(pair) != c.point:
                return None
            over_edge = shift(c.over_edge)
        else:
            other = shift(c.hi if c.lo == host else c.lo)
            candidates = [
                tuple(sorted((half, other))) for half in (host, host + 1)
            ]
            hits = [q for q in candidates if q in by_pair]
            if len(hits) != 1:
                return None
            pair = hits[0]
            half = host if pair == candidates[0] else host + 1
            over_edge = half if c.over_edge == host else other
        crossings.append(
            Crossing(pair[0], pair[1], by_pair[pair], "lo" if over_edge == pair[0] else "hi")
        )
        seen.add(pair)
    if seen != set(by_pair):
        return None
    return TransverseDiagram(new_curve, d.coorientation, tuple(crossings))


def stabilize(d: TransverseDiagram, host: int, count: int) -> TransverseDiagram:
    """Splice ``count`` disjoint detours into the host edge.

    The result is valid, has 2*count more crossings, all new crossings
    have sign -1, and the writhe (hence self-linking number) drops by
    2*count; Whitney index and v2 are unchanged.  Detours are placed
    one after another along the remainder of the host edge, shrinking
    as needed; HostTooShortError is raised only if no scale fits.
    """
    require_valid(d)
    if not 1 <= host <= d.curve.n:
        raise ValueError(f"edge index {host} out of range 1..{d.curve.n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    for _ in range(count):
        if d.curve.direction(host).x == 0:
            d, host = _bend_vertical(d, host)
        d, host = _insert_detour(d, host)
    return d


# --- singular diagrams ------------------------------------------------------


@dataclass(frozen=True)
class Resolved:
    """A site that keeps its crossing data."""

    crossing: Crossing


@dataclass(frozen=True)
class Double:
    """A crossing whose over bit has been erased."""

    lo: int
    hi: int
    point: Point


Site = Union[Resolved, Double]


@dataclass(frozen=True)
class SingularDiagram:
    """A diagram whose crossings may be unresolved double points.

    Geometry is that of a TransverseDiagram; sites appear in the order
    of the underlying crossing list, and that order is the canonical
    one for resolution enumeration.
    """

    curve: PolyCurve
    coorientation: Coorientation
    sites: tuple[Site, ...]

    def double_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sites) if isinstance(s, Double))


class Resolution(enum.Enum):
    POS = "+"
    NEG = "-"


@dataclass(frozen=True)
class ResolutionAssignment:
    """A choice of sign for every double point, keyed by site index."""

    choices: Mapping[int, Resolution]


def make_singular(d: TransverseDiagram, sites: Iterable[int]) -> SingularDiagram:
    """Erase the over bit at the crossings with the given indices.

    Indices are positions into ``d.crossings``.  Each selected crossing
    must be admissible: erasure is refused (InadmissibleDoublePointError)
    when the coorientation direction lies in the closed tangent cone,
    because there the over bit is forced and only one resolution is a
    valid diagram.
    """
    require_valid(d)
    chosen = set(sites)
    for i in chosen:
        if not 0 <= i < len(d.crossings):
            raise ValueError(f"crossing index {i} out of range")
    out: list[Site] = []
    for i, c in enumerate(d.crossings):
        if i not in chosen:
            out.append(Resolved(c))
            continue
        if forced_over(d.curve, d.coorientation, c.lo, c.hi) is not None:
            raise InadmissibleDoublePointError(
                f"crossing {i} between edges {c.lo} and {c.hi} at "
                f"({c.point.x},{c.point.z}) has a forced over bit"
            )
        out.append(Double(c.lo, c.hi, c.point))
    return SingularDiagram(d.curve, d.coorientation, tuple(out))


def resolve(s: SingularDiagram, a: ResolutionAssignment) -> TransverseDiagram:
    """Turn every double point back into a crossing of the chosen sign.

    POS selects the over bit making the crossing sign +1, NEG the other
    one.  The assignment must cover exactly the double sites.
    """
    doubles = set(s.double_indices())
    if set(a.choices) != doubles:
        raise ValueError("assignment must cover every double site exactly once")
    crossings = []
    for i, site in enumerate(s.sites):
        if isinstance(site, Resolved):
            crossings.append(site.crossing)
            continue
        t_lo = s.curve.direction(site.lo)
        t_hi = s.curve.direction(site.hi)
        want_pos = a.choices[i] is Resolution.POS
        over = "lo" if (cross(t_lo, t_hi) > 0) == want_pos else "hi"
        crossings.append(Crossing(site.lo, site.hi, site.point, over))
    return TransverseDiagram(s.curve, s.coorientation, tuple(crossings))


def assignment_sign(a: ResolutionAssignment) -> int:
    """+1 when the number of negative resolutions is even, else -1."""
    negs = sum(1 for r in a.choices.values() if r is Resolution.NEG)
    return -1 if negs % 2 else 1


# --- the order checker ------------------------------------------------------


@dataclass(frozen=True)
class InvariantHandle:
    """A named integer diagram invariant with a claimed order."""

    name: str
    fn: Callable[[TransverseDiagram], int]
    claimed_order: int


@dataclass(frozen=True)
class FramedInvariantHandle:
    """An invariant of (diagram, framing integer) pairs."""

    name: str
    fn: Callable[[TransverseDiagram, int], int]
    claimed_order: int


@dataclass(frozen=True)
class DefectReport:
    invariant_name: str
    order_tested: int
    defect: int
    resolutions_evaluated: int


@dataclass(frozen=True)
class OrderCheckResult:
    holds: bool
    reports: tuple[DefectReport, ...]


def vassiliev_defect(inv: InvariantHandle, s: SingularDiagram) -> DefectReport:
    """Signed sum of the invariant over all 2^k resolutions.

    Sites are enumerated by binary counting in canonical (crossing
    list) order; the value is order-independent since it is a plain
    sum.  A diagram with k double points probes order k-1: the defect
    vanishes for every invariant of order < k.
    """
    doubles = s.double_indices()
    if not doubles:
        raise ValueError("need at least one double point")
    k = len(doubles)
    total = 0
    for m in range(2**k):
        choices = {
            idx: Resolution.NEG if (m >> b) & 1 else Resolution.POS
            for b, idx in enumerate(doubles)
        }
        a = ResolutionAssignment(choices)
        total += assignment_sign(a) * inv.fn(resolve(s, a))
    return DefectReport(inv.name, k - 1, total, 2**k)


def is_order_at_most(
    inv: InvariantHandle, n: int, family: Sequence[SingularDiagram]
) -> OrderCheckResult:
    """Evidence check: do all (n+1)-double-point defects vanish?

    Every family member must carry exactly n+1 double points
    (FamilyArityError otherwise).  A True result is evidence on the
    supplied family, not a proof of the order bound.
    """
    reports = []
    for s in family:
        k = len(s.double_indices())
        if k != n + 1:
            raise FamilyArityError(
                f"order {n} needs {n + 1} double points per member, got {k}"
            )
        reports.append(vassiliev_defect(inv, s))
    return OrderCheckResult(all(r.defect == 0 for r in reports), tuple(reports))


def pullback_framed_invariant(h: FramedInvariantHandle) -> InvariantHandle:
    """Restrict a framed invariant to diagrams via the natural framing.

    A diagram determines its own framing integer, the self-linking
    number, so a framed invariant pulls back by evaluating at
    (d, sl(d)).  The claimed order carries over.
    """

    def pulled(d: TransverseDiagram) -> int:
        return h.fn(d, self_linking(d))

    return InvariantHandle(f"{h.name}-pullback", pulled, h.claimed_order)


WRITHE_INVARIANT = InvariantHandle("writhe", writhe, 1)
V2_INVARIANT = InvariantHandle("v2", v2, 2)
FRAMING_PROJECTION = FramedInvariantHandle("sl", lambda d, f: f, 1)


# --- seeded generation ------------------------------------------------------

# Primitive non-vertical directions; a diagram uses a sample of these
# together with their negatives, so edge vectors always sum to zero.
_DIRECTION_POOL: tuple[Vec, ...] = tuple(
    Vec(_F(x), _F(z))
    for x, z in [
        (1, 0), (2, 1), (1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (2, 3),
        (2, -1), (1, -1), (1, -2), (1, -3), (3, -1), (3, -2), (2, -3), (4, 1),
    ]
)


def random_valid_diagram(
    seed: object, coorientation: Coorientation = Coorientation.PLUS
) -> TransverseDiagram:
    """A seeded random valid diagram.

    Edge directions are drawn as (v, -v) pairs with a shared random
    stretch, shuffled, and rejected until no consecutive directions are
    parallel and no corner sweep passes through the forbidden vertical;
    the closed curve of partial sums is then rejection-sampled through
    the genericity check.  Over bits are forced where the coorientation
    requires it and chosen at random elsewhere, so the result always
    validates.  The same seed always yields the same diagram.
    """
    rng = random.Random(f"transknot/{seed!r}/{coorientation.value}")
    ref = UP if coorientation is Coorientation.PLUS else DOWN
    for _ in range(2000):
        base = rng.sample(_DIRECTION_POOL, rng.randint(3, 5))
        dirs: list[Vec] = []
        for v in base:
            stretch = _F(rng.randint(1, 4))
            dirs += [scale(v, stretch), scale(neg(v), stretch)]
        rng.shuffle(dirs)

        ok = True
        for i, d_in in enumerate(dirs):
            d_out = dirs[(i + 1) % len(dirs)]
            if is_parallel(d_in, d_out) or corner_sweep_contains(d_in, d_out, ref):
                ok = False
                break
        if not ok:
            continue

        pts = [Point(_F(0), _F(0))]
        for v in dirs[:-1]:
            pts.append(Point(pts[-1].x + v.x, pts[-1].z + v.z))
        curve = PolyCurve(tuple(pts))
        if curve.genericity_violations:
            continue

        crossings = []
        for lo, hi, p in curve.detected_crossings:
            over = forced_over(curve, coorientation, lo, hi) or rng.choice(("lo", "hi"))
            crossings.append(Crossing(lo, hi, p, over))
        d = TransverseDiagram(curve, coorientation, tuple(crossings))
        require_valid(d)
        return d
    raise RuntimeError(f"random diagram search failed for seed {seed!r}")


def singular_family(seed: object, doubles: int, size: int) -> list[SingularDiagram]:
    """A seeded family of diagrams with exactly ``doubles`` double points.

    The first member is deterministic: a trefoil with its braid
    crossings erased.  Those sites carry genuine order-n structure
    (erasing two of them already changes v2), so order checks against
    these families fail exactly when they should.  Remaining members
    come from random_valid_diagram with an admissible crossing subset.
    """
    if doubles < 1:
        raise ValueError("doubles must be >= 1")
    rng = random.Random(f"transknot-family/{seed!r}/{doubles}")
    members: list[SingularDiagram] = []
    if doubles <= 3:
        t = trefoil_right()
        braid = [
            i
            for i, c in enumerate(t.crossings)
            if (c.lo, c.hi) in {(1, 9), (2, 10), (3, 11)}
        ]
        members.append(make_singular(t, braid[:doubles]))
    def admissible_sites(d: TransverseDiagram) -> list[int]:
        return [
            i
            for i, c in enumerate(d.crossings)
            if forced_over(d.curve, d.coorientation, c.lo, c.hi) is None
        ]

    serial = 0
    while len(members) < size:
        d = random_valid_diagram(f"{seed!r}-member-{serial}")
        serial += 1
        if serial > 400 * size:
            raise RuntimeError("singular family generation stalled")
        sites = admissible_sites(d)
        if len(sites) < doubles:
            # each detour carries one admissible crossing, so a short
            # stabilization tops up any shortfall
            d = stabilize(d, 1, doubles - len(sites))
            sites = admissible_sites(d)
        if len(sites) < doubles:
            continue
        members.append(make_singular(d, rng.sample(sites, doubles)))
    return members[:size]
