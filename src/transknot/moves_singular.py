"""Double-loop stabilization, singular diagrams, and order checking.

Stabilization splices copies of a fixed detour into an edge of a valid
diagram.  Each detour leaves the host edge, winds through a double
loop that crosses itself twice with sign -1 at both crossings, and
rejoins the edge travelling in the original direction with net
tangent turning 0.  The detours are evenly spaced along the host edge
and share one scale, so ``count`` of them add exactly 2*count negative
crossings and drop the writhe (and self-linking number) by 2*count
while leaving the Whitney index and v2 untouched.  The template is
stored as ints, and each detour point goes to the splice as ints too, a
fraction of the host edge plus an offset over one common denominator.
``diagram.splice`` builds the new curve's ints from them and checks its
crossings against the expected ones by one sorted comparison of ints,
so a move builds no vertex Fraction and hashes no Fraction point.

A singular diagram is a valid diagram together with the indices of
the crossings whose over bit is erased ("double points").  Erasure is
only permitted where both over bits yield a valid diagram, i.e. where
the coorientation direction lies outside the closed tangent cone.
A resolution is a sign, 1 or -1, for each double point: resolving sets
the bit of that sign in a copy of the host's bits, so a resolution keeps
the host's curve, and with it the crossings, and its validity.  Summing
the invariant over all resolutions, each weighted by the product of its
signs, yields the defect whose vanishing on (n+1)-point diagrams is the
evidence that an invariant has order <= n.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .diagram import (Coorientation, PolyCurve, TransverseDiagram, _attach_over, _point,
                      frame_length2, least_dist2, over_for_sign, splice)
from .errors import (
    FamilyArityError,
    HostTooShortError,
    InadmissibleDoublePointError,
    TransknotError,
)
from .fixtures import trefoil_right
from .geometry import corner_turns, halvings
from .invariants import self_linking, v2, writhe
from .transversality import forced_over, reference, require_valid, validate

# --- the canonical detour ---------------------------------------------------

# Drawn for a horizontal host running left to right under the Plus
# coorientation, in units of 1/30, which make every point an int.  The
# path enters at (0,0), exits at (720,0), and its tangent directions all
# avoid straight up, as do all corner sweeps; net turning is zero.  Its
# segments are numbered 0..8 from the entry, and it crosses itself
# exactly twice, at _DETOUR_CROSSINGS:
#
#   at (60,60):  first ascent (0) x returning strand (4); up lies in the
#                open tangent cone, so the over bit is forced;
#   at (25,25):  first ascent (0) x final descent (6); up is outside the
#                closed cone, so the over bit is free.
#
# The map that places the template (see stabilize) keeps the first one
# forced and the second free, and a forced bit is the bit of sign -1
# (see forced_over).  So both take the over bit of sign -1, whatever
# the map.
_DETOUR_PATH = ((0, 0), (150, 150), (270, 150), (330, 30), (120, 0), (30, 90), (15, 75),
                (36, -30), (690, -30), (720, 0))

_DETOUR_CROSSINGS = ((60, 60), (25, 25))

# the path and then the crossings, as displacements from the centre (360, 0)
_DETOUR_SPOKES = tuple((x - 360, z) for x, z in _DETOUR_PATH + _DETOUR_CROSSINGS)


def _anchors(d: TransverseDiagram, host: int, count: int) -> tuple[list[Fraction], Fraction]:
    """Evenly spaced fractions f of the host edge, whose points a + f*e,
    for the edge a -> a + e, are clear of crossings, and the least
    squared clearance among those points.

    The fractions are (2j-1)/(2*count) + shift, j = 1..count, where the
    shift is the first of 0, 1/(4*count), 1/(8*count), ... that keeps
    every one of them off the fractions of the crossings on the host,
    which ``fractions_along`` reads from the ints.  Two shifts differ by
    less than the spacing, so each crossing on the host rules out at
    most one of them.  On a generic curve only crossings touch the
    interior of the host edge, so the clearance is positive.

    The clearance of a point is its least squared distance to a feature
    other than the host edge: a vertex, another edge or a crossing.  A
    detour confined to a quarter of its square root cannot touch
    anything it should not.  Every vertex is an end of an edge other
    than the host and every crossing lies on one, so the edges alone
    give it: ``least_dist2`` measures each point (host, f) of the curve
    against every edge but the host.  It is at most the squared host
    length: each point lies that close to the host's ends.
    """
    on_host = set(d.fractions_along(host))
    for shift in [Fraction(0)] + [Fraction(1, 2**m * count) for m in range(2, len(on_host) + 2)]:
        fs = [Fraction(2 * j - 1, 2 * count) + shift for j in range(1, count + 1)]
        if on_host.isdisjoint(fs):
            break
    return fs, least_dist2(d.curve, [(host, f) for f in fs])


def _bend_vertical(d: TransverseDiagram, host: int) -> TransverseDiagram:
    """Bend a vertical host edge a -> b inside its anchor's clearance,
    into a -> m1 -> m' -> m2 -> b, in one attempt; the first slanted
    piece m1 -> m' is edge host + 1.

    m is the point of the fraction of ``_anchors(d, host, 1)`` and r**2
    its clearance; s is the sign of the host's z-direction and h = 2**-e
    for the least e with 4h <= r.  Then m1 = m - (0, s*h), m' = m + (h, 0)
    and m2 = m + (0, s*h).  On a valid diagram ``diagram.splice`` keeps
    every crossing's point and over bit and the result is valid:

    - Every edge but the host lies at least r from m.  That includes
      the edges at a and b, so m1 and m2 lie inside the host.
    - The triangle m1 m' m2 lies within h < r of m, so it meets no
      other edge, vertex or crossing: no crossing moves.
    - The new directions (h, s*h) and (-h, s*h) are not vertical.  The
      sweeps at m1, m' and m2 stay on the host's side of the vertical,
      and the turn at m' passes through the host's own, allowed,
      vertical.
    - The corners at a and b keep their directions.

    The splice and the validity of its result are still checked;
    HostTooShortError is raised if either fails.
    """
    (f,), r2 = _anchors(d, host, 1)
    q, e = f.denominator, halvings(1, r2)  # over q * 2**e: m is at t, and h is q
    t, sh = f.numerator << e, (q if d.curve.direction(host).z > 0 else -q)
    bent = splice(d, host, q << e, [(t, 0, -sh), (t, q, 0), (t, 0, sh)], ())
    if bent is None or not validate(bent).is_valid:
        raise HostTooShortError(f"could not bend vertical edge {host}")
    return bent


def stabilize(d: TransverseDiagram, host: int, count: int) -> TransverseDiagram:
    """Splice ``count`` disjoint detours into the host edge.

    The result is valid, has 2*count more crossings, and the writhe
    (hence self-linking number) drops by 2*count; Whitney index and v2
    are unchanged.  ``diagram.splice`` checks this at the exact points:
    every old crossing keeps its point and over bit, and each loop adds
    the two template crossings, both of sign -1.  A vertical host is first
    bent inside its anchor's clearance (``_bend_vertical``), which
    moves no crossing, and the detours go into its first slanted piece,
    edge host + 1.  The detours are centred at evenly spaced fractions
    of the host edge (``_anchors``) and share one power-of-two scale,
    fixed by the least clearance of their centres, and all go in with
    one splice, so the coordinates grow by O(log count) bits over the
    host's.  The detour points are handed to the splice as ints, at
    their fractions along the host plus a vertical offset.  The host
    edge is read through ``diagram.py`` alone: where its crossings lie
    (``fractions_along``) and how far the detours reach
    (``frame_length2``), so no vertex or crossing point is built.
    HostTooShortError is raised only if no scale fits (the anchors'
    clearance would need 256 or more halvings of the detour), or if the
    checks of a vertical host's bend fail, which ``_bend_vertical``
    proves cannot happen on a valid diagram.
    """
    require_valid(d)
    if not 1 <= host <= d.curve.n:
        raise ValueError(f"edge index {host} out of range 1..{d.curve.n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return d
    if d.curve.direction(host).x == 0:
        d = _bend_vertical(d, host)
        host += 1

    # The detour template is drawn for direction (1,0) under Plus.  The
    # linear map (1,0) -> host direction v, (0,1) -> (0, +-1) transports
    # it to any non-vertical host: verticals stay vertical, so the
    # no-upward-tangent conditions transport as well.  A spoke u of the
    # template, scaled by s, lands at the anchor a + f*v plus
    # s*(ux*v + (0, sigma*uz))/30: at the fraction f + s*ux/30 of the
    # host and the vertical offset s*sigma*uz/30, which is the splice's
    # frame point (ux, 0, sigma*uz) over 30/s.  The crossings lie on the
    # path, so they do not raise the largest deviation, which
    # ``frame_length2`` measures on these spokes, in units of s/30.
    sigma = reference(d.coorientation).z
    spokes = [(ux, 0, sigma * uz) for ux, uz in _DETOUR_SPOKES]
    fs, r2 = _anchors(d, host, count)

    # One scale s = 2**-e for all detours: each stays within a quarter of
    # the least clearance r of the anchors.  r counts the ends of the
    # host edge, which lie at most half an anchor spacing from the first
    # and last anchors, so this also leaves a piece of the host between
    # neighbouring detours and at both ends.  Over q*30*2**e, with q the
    # lcm of the denominators of the anchors' fractions, every placed
    # point is an int triple.
    e = halvings(frame_length2(d.curve, host, spokes), 900 * r2)
    if e >= 256:
        raise HostTooShortError(f"no safe detour scale for edge {host}")
    q = math.lcm(*(f.denominator for f in fs))
    den = q * 30 << e
    placed = [[(f.numerator * (den // f.denominator) + t * q, 0, oz * q)
               for t, _, oz in spokes] for f in fs]
    ends = len(_DETOUR_PATH)
    path = [p for loop in placed for p in loop[:ends]]
    out = splice(d, host, den, path, [p for loop in placed for p in loop[ends:]])
    if out is None:
        raise TransknotError(f"detours on edge {host} crossed unexpectedly")
    return out


# --- singular diagrams ------------------------------------------------------


class SingularDiagram(NamedTuple):
    """A valid diagram with the over bits at some crossings erased, as
    ``make_singular`` builds it.

    ``diagram`` is the host, which keeps every crossing and its bit, and
    ``doubles`` the ascending indices into its ``entries`` of the
    crossings whose bits are erased, the double points, none of them
    forced.  A resolution maps each of them to a sign, 1 or -1
    (``resolve``), and ``vassiliev_defect`` pairs each sign tuple with
    the double points in this order.
    """

    diagram: TransverseDiagram
    doubles: tuple[int, ...]


def make_singular(d: TransverseDiagram, sites: Iterable[int]) -> SingularDiagram:
    """Erase the over bit at the crossings with the given indices.

    Indices are positions into ``d.entries``.  The diagram must be valid
    (InvalidDiagramError), and each index in range (ValueError).  Each
    selected crossing must be admissible: erasure is refused
    (InadmissibleDoublePointError, naming the lowest such index as its
    ``site``) when the coorientation direction lies in the closed tangent
    cone, because there the over bit is forced and only one resolution
    is a valid diagram.  Only that refusal builds a point, for its
    message.
    """
    require_valid(d)
    return SingularDiagram(d, _admissible(d, sites))


def _admissible(d: TransverseDiagram, sites: Iterable[int]) -> tuple[int, ...]:
    """The distinct sites in ascending order.  Each must be an int
    (ValueError naming the first that is not, so True and 1.0 are
    refused) and an index into ``d.entries`` (ValueError), and none may
    have a forced over bit: the lowest that has one is refused
    (InadmissibleDoublePointError)."""
    sites = tuple(sites)
    if bad := [i for i in sites if type(i) is not int]:
        raise ValueError(f"crossing index {bad[0]!r} is not an int")
    chosen = tuple(sorted(set(sites)))
    for i in chosen:
        if not 0 <= i < len(d.entries):
            raise ValueError(f"crossing index {i} out of range")
    for i in chosen:
        lo, hi, xzd = d.entries[i]
        if forced_over(d.curve, d.coorientation, lo, hi) is not None:
            p = _point(xzd)
            raise InadmissibleDoublePointError(
                f"crossing {i} between edges {lo} and {hi} at ({p.x},{p.z}) has a forced over bit",
                i)
    return chosen


def resolve(s: SingularDiagram, signs: Mapping[int, int]) -> TransverseDiagram:
    """Turn every double point back into a crossing of the given sign.

    ``signs`` maps each double point to the int 1 or -1, and the bit of
    that sign is set by ``diagram.over_for_sign``.  The result is the
    host's curve with the host's bits, the bit at each double point
    replaced by index: it builds no ``Crossing``.

    The double points are checked again as ``make_singular`` checks
    them, each an int index into the host's entries (ValueError) at a
    crossing whose bit is not forced (InadmissibleDoublePointError), as
    a SingularDiagram may be built by hand.  ValueError is raised too if
    the keys of ``signs`` are not exactly those ints (so 0.0 and True
    are refused as keys), or if a value is not the int 1 or -1 (so True,
    1.0, 0 and "+" are refused), naming its site.

    The result then takes the host's report, ``validate(host)``, under
    the key that ``validate`` keeps it by, as the check would compute
    the same one.  Genericity and condition 1 read only the curve, which
    the host shares.  Condition 2 reads the bits only at crossings with
    a forced bit, and none of those is a double point, so every bit it
    reads is the host's.
    """
    d, overs = s.diagram, list(s.diagram.overs)
    doubles = _admissible(d, s.doubles)
    if set(signs) != set(doubles) or any(type(i) is not int for i in signs):
        raise ValueError("assignment must cover every double site exactly once")
    for i in doubles:
        sign = signs[i]
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign {sign!r} for site {i} is not 1 or -1")
        lo, hi, _ = d.entries[i]
        overs[i] = over_for_sign(d.curve, lo, hi, sign)
    out = TransverseDiagram(d.curve, d.coorientation, overs)
    vars(out)["validity"] = validate(d)
    return out


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


class DefectReport(NamedTuple):
    invariant_name: str
    order_tested: int
    defect: int
    resolutions_evaluated: int


class OrderCheckResult(NamedTuple):
    holds: bool
    reports: tuple[DefectReport, ...]


def vassiliev_defect(inv: InvariantHandle, s: SingularDiagram) -> DefectReport:
    """The sum of e1*...*ek * inv(K_e) over the 2^k sign tuples e, the
    Vassiliev skein relation.

    K_e resolves the i-th double point, in ``doubles`` order, into a
    crossing of sign e_i.  The tuples come from ``itertools.product``;
    the value does not depend on their order, as it is a plain sum.  A
    diagram with k double points probes order k-1: the defect vanishes
    for every invariant of order < k.
    """
    if not s.doubles:
        raise ValueError("need at least one double point")
    k = len(s.doubles)
    total = sum(math.prod(signs) * inv.fn(resolve(s, dict(zip(s.doubles, signs))))
                for signs in itertools.product((1, -1), repeat=k))
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
        k = len(s.doubles)
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

# Primitive non-vertical directions, as ints; a diagram uses a sample
# of these together with their negatives, so edge vectors always sum to
# zero.
_DIRECTION_POOL: tuple[tuple[int, int], ...] = (
    (1, 0), (2, 1), (1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (2, 3),
    (2, -1), (1, -1), (1, -2), (1, -3), (3, -1), (3, -2), (2, -3), (4, 1),
)


def random_valid_diagram(
    seed: object, coorientation: Coorientation = Coorientation.PLUS
) -> TransverseDiagram:
    """A seeded random valid diagram.

    Edge directions are drawn as (v, -v) pairs with a shared random
    stretch, shuffled, and rejected until no consecutive directions are
    parallel and no corner sweep passes through the forbidden vertical
    (``geometry.corner_turns`` is 0 at every corner); the closed curve
    of partial sums is then rejection-sampled through the genericity
    check.  Over bits are forced where the coorientation requires it and
    chosen at random elsewhere, so the result always validates.  The
    same seed always yields the same diagram.

    The whole draw runs on ints: the vertices are int points, so the
    curve is built from them at scale 1, and the over bits, drawn in the
    pair pass's order, go to ``_attach_over`` as in a parse, so each
    crossing keeps the int triple the pair pass found.  It builds no
    Fraction but the points of the violations that reject a non-generic
    draw.  A search that finds no diagram in 2000 draws raises
    TransknotError.
    """
    rng = random.Random(f"transknot/{seed!r}/{coorientation.value}")
    ref = reference(coorientation)
    for _ in range(2000):
        base = rng.sample(_DIRECTION_POOL, rng.randint(3, 5))
        dirs = []
        for vx, vz in base:
            stretch = rng.randint(1, 4)
            dirs += [(vx * stretch, vz * stretch), (-vx * stretch, -vz * stretch)]
        rng.shuffle(dirs)
        parallel = any(ex * fz == ez * fx for (ex, ez), (fx, fz) in zip(dirs, dirs[1:] + dirs[:1]))
        if parallel or any(corner_turns(dirs, ref)):
            continue

        pts = [(0, 0)]
        for vx, vz in dirs[:-1]:
            pts.append((pts[-1][0] + vx, pts[-1][1] + vz))
        curve = PolyCurve._from_scaled(1, tuple(pts))
        if curve.genericity_violations:
            continue

        d = _attach_over(curve, coorientation, {
            (lo, hi): forced_over(curve, coorientation, lo, hi) or rng.choice(("lo", "hi"))
            for lo, hi, _ in curve.pair_facts[0]})
        require_valid(d)
        return d
    raise TransknotError(f"random diagram search failed for seed {seed!r}")


def singular_family(seed: object, doubles: int, size: int) -> list[SingularDiagram]:
    """A seeded family of diagrams with exactly ``doubles`` double points.

    The first member is deterministic: a trefoil with its braid
    crossings erased.  Those sites carry genuine order-n structure
    (erasing two of them already changes v2), so order checks against
    these families fail exactly when they should.  Remaining members
    come from random_valid_diagram with an admissible crossing subset,
    one draw per member.

    A draw with fewer than ``doubles`` admissible sites is topped up by
    stabilizing edge 1 once per missing site, and that always suffices:
    each detour adds one forced and one free crossing (see the detour
    template), and the pieces of the host keep the host's direction, so
    every old site stays admissible or forced as before.  A top-up that
    still falls short raises TransknotError.
    """
    if doubles < 1:
        raise ValueError("doubles must be >= 1")
    rng = random.Random(f"transknot-family/{seed!r}/{doubles}")
    members: list[SingularDiagram] = []
    if doubles <= 3:
        t = trefoil_right()
        braid = [i for i, (lo, hi, _) in enumerate(t.entries)
                 if (lo, hi) in {(1, 9), (2, 10), (3, 11)}]
        members.append(make_singular(t, braid[:doubles]))

    def admissible_sites(d: TransverseDiagram) -> list[int]:
        return [i for i, (lo, hi, _) in enumerate(d.entries)
                if forced_over(d.curve, d.coorientation, lo, hi) is None]

    for serial in range(size - len(members)):
        d = random_valid_diagram(f"{seed!r}-member-{serial}")
        sites = admissible_sites(d)
        if len(sites) < doubles:
            d = stabilize(d, 1, doubles - len(sites))
            sites = admissible_sites(d)
            if len(sites) < doubles:
                raise TransknotError(f"stabilizing member {serial} left {len(sites)} "
                                     f"admissible sites, short of {doubles}")
        members.append(make_singular(d, rng.sample(sites, doubles)))
    return members[:size]
