"""The int kernel against the Fraction reference predicates.

``detect_crossings``, ``genericity_violations``,
``min_feature_separation2`` and the clearance of the stabilization
anchors run on vertices scaled to ints and compare only features whose
closed boxes meet.  Each is checked with ``==`` against a plain
all-pairs loop over the Fraction predicates of ``transknot.geometry``,
and the push-off oracle against a push-off at a finite Fraction offset
(``fraction_routines.ref_oracle``).  The oracle is the writhe because on
a generic curve the pairs of edges that meet are exactly the crossing
pairs; that is checked on the reference pass.  The pair pass, one
loop that keeps each crossing as the int triple of its point, is checked
against the walk over the pairs of ``box_overlapping_pairs`` with one
``pair_determinants`` call each that it replaced, and the crossings
view a diagram builds from its entries against the crossings built from
their Fraction points.

Conditions 1 and 2, the Whitney index, crossing signs, the along-edge
crossing order, the v2 basepoint and ``resolve`` decide on the curve's
int directions; each is checked with ``==`` against the same decision
taken on the Fraction directions of ``direction()`` and of
``fraction_routines.corners``, with the cone tests solved by Fraction
division.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from transknot import diagram, geometry, invariants, transversality
from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    build_diagram,
    detect_crossings,
    min_feature_separation2,
    parse_diagram,
    sort_violations,
)
from transknot.errors import DegenerateConeError, ReversalError, TransknotError
from transknot.fixtures import (
    minus_unknot,
    one_crossing_unknots,
    trefoil_left,
    trefoil_right,
    trefoil_right_alt,
    u_minus,
    u_minus_forbidden,
)
from transknot.geometry import (
    Point,
    Vec,
    corner_sweep_contains,
    cross,
    dist2,
    dot,
    in_closed_cone,
    in_open_cone,
    is_parallel,
    neg,
    point_in_open_segment,
    point_segment_dist2,
    same_direction,
    scale,
    segment_intersection,
    sign,
    turn_sign,
    vec,
)
from transknot.invariants import (
    _chords,
    crossing_sign,
    pushoff_linking_oracle,
    v2,
    writhe,
)
from transknot.moves_singular import (
    _anchors,
    _bend_vertical,
    make_singular,
    random_valid_diagram,
    resolve,
    stabilize,
)
from transknot.transversality import (
    check_condition1,
    check_condition2,
    corner_turns,
    forced_over,
    regular_direction,
    validate,
    whitney_index,
)

from fraction_routines import add, corners, ref_oracle, ref_pushoff_once, ref_separation

# --- the reference: all pairs, Fraction arithmetic -------------------------


def ref_crossings(curve):
    n = curve.n
    found = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j - i in (1, n - 1):  # adjacent edges
                continue
            p = segment_intersection(*curve.edge(i), *curve.edge(j))
            if p is not None:
                found.append((i, j, p))
    return tuple(found)


def ref_genericity(curve):
    n = curve.n
    out = []
    zero = {i for i, a, b in curve.edges() if a == b}
    out += [Violation(ViolationKind.ZeroEdge, edges=(i,)) for i in zero]
    for i, d_in, d_out in corners(curve):
        e_in = (i - 2) % n + 1
        if e_in not in zero and i not in zero and cross(d_in, d_out) == 0 \
                and dot(d_in, d_out) < 0:
            out.append(Violation(ViolationKind.ReversalCorner, edges=(e_in, i)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if curve.vertex(i) == curve.vertex(j) and (j - i) % n not in (1, n - 1):
                out.append(Violation(ViolationKind.EndpointContact, point=curve.vertex(i)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i in zero or j in zero:
                continue
            (a, b), (c, d) = curve.edge(i), curve.edge(j)
            di = vec(a, b)
            if cross(di, vec(c, d)) != 0 or cross(di, vec(a, c)) != 0:
                continue
            ref = dot(di, di)
            lo, hi = sorted((dot(vec(a, c), di), dot(vec(a, d), di)))
            if min(ref, hi) > max(Fraction(0), lo):
                out.append(Violation(ViolationKind.CollinearOverlap, edges=(i, j)))
    for k in range(1, n + 1):
        p = curve.vertex(k)
        if any(point_in_open_segment(p, *curve.edge(i))
               for i in range(1, n + 1) if (k - i) % n not in (0, 1)):
            out.append(Violation(ViolationKind.VertexOnEdge, point=p))
    points = [p for _, _, p in ref_crossings(curve)]
    for p in dict.fromkeys(points):
        if points.count(p) > 1:
            out.append(Violation(ViolationKind.TriplePoint, point=p))
    return tuple(sort_violations(out))


def ref_clearance2(d, host, p):
    """Squared distance from p to every vertex, every edge except the
    host and every crossing point."""
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


def outcome(fn, d):
    try:
        return fn(d)
    except TransknotError as e:
        return type(e)


def assert_kernel_matches(d):
    curve = d.curve
    assert detect_crossings(curve) == list(ref_crossings(curve))
    assert curve.genericity_violations == ref_genericity(curve)
    assert outcome(min_feature_separation2, d) == outcome(ref_separation, d)
    if validate(d).is_valid:
        assert outcome(pushoff_linking_oracle, d) == outcome(ref_oracle, d)


# --- the reference direction predicates: Fraction directions -------------

REF_UP = Vec(Fraction(0), Fraction(1))


def ref_cone(u, t1, t2):
    """(a, b) with u = a*t1 + b*t2, solved by Fraction division."""
    denom = cross(t1, t2)
    if denom == 0:
        raise DegenerateConeError("cone generators are parallel")
    return cross(u, t2) / denom, cross(t1, u) / denom


def ref_condition1(curve, coor):
    ref = REF_UP if coor is Coorientation.PLUS else neg(REF_UP)
    n = curve.n
    out = [Violation(ViolationKind.UpwardEdge, edges=(i,))
           for i in range(1, n + 1) if same_direction(curve.direction(i), ref)]
    for i, d_in, d_out in corners(curve):
        if corner_sweep_contains(d_in, d_out, ref):
            out.append(Violation(ViolationKind.UpwardCorner, edges=((i - 2) % n + 1, i)))
    return sort_violations(out)


def ref_forced_over(curve, coor, lo, hi):
    t_lo, t_hi = curve.direction(lo), curve.direction(hi)
    if coor is Coorientation.MINUS:
        t_lo, t_hi = neg(t_lo), neg(t_hi)
    a, b = ref_cone(REF_UP, t_lo, t_hi)
    if not (a > 0 and b > 0):
        return None
    return "lo" if t_lo.x < 0 else "hi"


def ref_condition2(d):
    return sort_violations(
        Violation(ViolationKind.ForbiddenCrossing, point=c.point)
        for c in d.crossings
        if ref_forced_over(d.curve, d.coorientation, c.lo, c.hi) not in (None, c.over)
    )


def ref_whitney(curve):
    dirs = [curve.direction(i) for i in range(1, curve.n + 1)]
    ref = REF_UP
    k = 1
    while any(is_parallel(t, ref) for t in dirs):
        ref = Vec(Fraction(1), Fraction(k))
        k += 1
    return sum(turn_sign(d_in, d_out) for _, d_in, d_out in corners(curve)
               if corner_sweep_contains(d_in, d_out, ref))


def ref_crossing_sign(d, c):
    return sign(cross(d.curve.direction(c.over_edge), d.curve.direction(c.under_edge)))


def ref_crossings_along(d):
    out = []
    for i, a, b in d.curve.edges():
        t = vec(a, b)
        on = [c for c in d.crossings if i in (c.lo, c.hi)]
        out.append(tuple(sorted(on, key=lambda c: dot(vec(a, c.point), t))))
    return tuple(out)


def along_crossings(d):
    """``crossings_along`` with each index read as its crossing."""
    return tuple(tuple(d.crossings[k] for k in along) for along in d.crossings_along)


def ref_passages(d, base):
    n = d.curve.n
    along = ref_crossings_along(d)
    passages = []
    for step in range(n):
        i = (base - 1 + step) % n + 1
        passages += [((c.lo, c.hi), c.over_edge == i) for c in along[i - 1]]
    return passages


def ref_chords(d, base):
    chords = {}
    for idx, (cid, over) in enumerate(ref_passages(d, base)):
        if cid in chords:
            chords[cid][1] = idx
        else:
            c = next(c for c in d.crossings if (c.lo, c.hi) == cid)
            chords[cid] = [idx, None, over, ref_crossing_sign(d, c)]
    return list(chords.values())


def ref_v2(d, base):
    where = {}
    for idx, (cid, over) in enumerate(ref_passages(d, base)):
        where.setdefault(cid, []).append((idx, over))
    signs = {(c.lo, c.hi): ref_crossing_sign(d, c) for c in d.crossings}
    total = 0
    for one, other in itertools.combinations(where, 2):
        (a1, ra1), (a2, _) = where[one]
        (b1, rb1), (b2, _) = where[other]
        if a1 < b1 < a2 < b2 and ra1 and not rb1 or b1 < a1 < b2 < a2 and rb1 and not ra1:
            total += signs[one] * signs[other]
    return total


def ref_resolve(s, signs):
    d, crossings = s.diagram, []
    for i, c in enumerate(d.crossings):
        if i not in signs:
            crossings.append(c)
            continue
        positive = cross(d.curve.direction(c.lo), d.curve.direction(c.hi)) > 0
        over = "lo" if positive == (signs[i] == 1) else "hi"
        crossings.append(Crossing(c.lo, c.hi, c.point, over))
    return TransverseDiagram(d.curve, d.coorientation, tuple(crossings))


def assert_directions_match(d):
    curve = d.curve
    other = Coorientation.MINUS if d.coorientation is Coorientation.PLUS else Coorientation.PLUS
    for coor in Coorientation:
        assert check_condition1(curve, coor) == ref_condition1(curve, coor)
    # the same crossings under the other coorientation, and with every
    # over bit flipped, violate condition 2 at the forced crossings
    flipped = d.with_over({(c.lo, c.hi): "hi" if c.over == "lo" else "lo"
                           for c in d.crossings})
    for e in (d, flipped, TransverseDiagram(curve, other, d.crossings)):
        assert check_condition2(e) == ref_condition2(e)
        for c in e.crossings:
            assert forced_over(curve, e.coorientation, c.lo, c.hi) == \
                ref_forced_over(curve, e.coorientation, c.lo, c.hi)
    assert whitney_index(curve) == ref_whitney(curve)
    assert [crossing_sign(d, c) for c in d.crossings] == \
        [ref_crossing_sign(d, c) for c in d.crossings]
    assert along_crossings(d) == ref_crossings_along(d)
    for base in range(1, curve.n + 1):
        assert v2(d, base) == ref_v2(d, base)
    least = min(range(1, curve.n + 1), key=curve.vertex)
    assert _chords(d) == ref_chords(d, 1)
    assert v2(d) == ref_v2(d, least)

    free = [i for i, c in enumerate(d.crossings)
            if ref_forced_over(curve, d.coorientation, c.lo, c.hi) is None]
    s = make_singular(d, free[:3])
    for bits in itertools.product((1, -1), repeat=len(free[:3])):
        signs = dict(zip(free[:3], bits))
        assert resolve(s, signs) == ref_resolve(s, signs)


# --- inputs ----------------------------------------------------------------

SEEDS = range(4)


@pytest.mark.parametrize("coor", list(Coorientation))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_diagrams_and_their_stabilizations(seed, coor):
    d = random_valid_diagram(seed, coor)
    assert_kernel_matches(d)
    assert_kernel_matches(stabilize(d, 1 + seed % d.curve.n, 2))


def assert_clearance_matches(d, host):
    a, direction = d.curve.vertex(host), d.curve.direction(host)
    for count in (1, 2, 3, 5):
        fractions, r2 = _anchors(d, host, count)
        anchors = [add(a, scale(direction, f)) for f in fractions]
        assert r2 == min(ref_clearance2(d, host, p) for p in anchors)


# u_minus with its edge 9 running straight down, and its mirror under Minus
VERTICAL_EDGE_UNKNOT = [(-1, -1), (1, 1), (2, 1), (3, 0), (2, -1), (1, -1),
                        (-1, 1), (-2, 1), (-3, 0), (-3, -1), (-2, -1)]


@pytest.mark.parametrize("d", [
    trefoil_right(), trefoil_left(), u_minus(), minus_unknot(),
    build_diagram(VERTICAL_EDGE_UNKNOT, Coorientation.PLUS, {(1, 6): "hi"}),
    build_diagram([(x, -z) for x, z in VERTICAL_EDGE_UNKNOT], Coorientation.MINUS,
                  {(1, 6): "lo"}),
] + [random_valid_diagram(s, c) for s in SEEDS for c in Coorientation])
def test_anchor_clearance_on_every_edge(d):
    for host in range(1, d.curve.n + 1):
        assert_clearance_matches(d, host)
        if d.curve.direction(host).x == 0:
            assert_clearance_matches(_bend_vertical(d, host), host)


@pytest.mark.parametrize("coor", list(Coorientation))
@pytest.mark.parametrize("seed", SEEDS)
def test_direction_predicates_on_random_diagrams(seed, coor):
    d = random_valid_diagram(seed, coor)
    assert_directions_match(d)
    assert_directions_match(stabilize(d, 1 + seed % d.curve.n, 2))


def ladder(k):
    """The right trefoil with edge 1 stabilized k times, as benchmarked."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ladder"
            / f"trefoil_right-e1-k{k}.td")
    return parse_diagram(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("k", [0, 2, 4, 8])
def test_direction_predicates_on_the_ladder(k):
    assert_directions_match(ladder(k))


@pytest.mark.parametrize("k", [0, 2, 4, 8])
def test_all_pairs_loops_on_the_ladder(k):
    # the detours stack along one host edge, so most edges that meet in
    # x lie apart in z: the box sweeps skip the most pairs here
    assert_kernel_matches(ladder(k))


def test_oracle_reads_the_pair_pass(monkeypatch):
    # the oracle sums the signs of the crossings the pair pass found:
    # neither the kernel nor a sweep runs again
    made = [ladder(8), trefoil_right(), trefoil_left(), u_minus(), minus_unknot()]

    def refuse(*args):
        raise AssertionError("the push-off oracle walked the edge pairs")

    for module in (diagram, geometry, invariants):
        for name in ("pair_determinants", "box_overlapping_pairs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for d in made:
        assert pushoff_linking_oracle(d) == writhe(d)


def walked_diagrams():
    """Generated diagrams and stabilizations, and the seeded grid curves
    with no exact reversal, with crossings as the small-grid test draws
    them."""
    for s in range(12):
        for coor in Coorientation:
            d = random_valid_diagram(f"walk{s}", coor)
            yield d
            yield stabilize(d, 1 + s % d.curve.n, 1 + s % 3)
    for c in grid_curves(400):
        if any(v.kind is ViolationKind.ReversalCorner for v in c.genericity_violations):
            continue
        coor = Coorientation.PLUS if c.n % 2 else Coorientation.MINUS
        yield TransverseDiagram(c, coor, tuple(
            Crossing(lo, hi, p, forced_over(c, coor, lo, hi) or "lo")
            for lo, hi, p in detect_crossings(c)))


def ref_crossing_scan(curve):
    """The pair pass as it was before it kept crossings as int triples:
    (crossings with Fraction points, violations, meets (i, j, den, s,
    t)), a meet being a pair of non-parallel edges whose closed
    segments meet.  It walks the pairs of ``box_overlapping_pairs`` over
    the edge boxes, adjacent ones included, with one
    ``pair_determinants`` call per pair."""
    n = curve.n
    scale, pts = curve.scaled
    dirs = curve.int_directions
    out, found, meets = [], [], []
    out += [Violation(ViolationKind.ZeroEdge, edges=(i + 1,))
            for i, t in enumerate(dirs) if t == (0, 0)]
    on_edge = set()
    for i, j in geometry.box_overlapping_pairs(curve.edge_boxes):
        a, e, f = pts[i], dirs[i], dirs[j]
        adjacent = j - i in (1, n - 1)
        if adjacent and e[0] * f[1] != e[1] * f[0]:
            continue
        den, s, t, wx, wz = geometry.pair_determinants(a, e, pts[j], f)
        if den < 0:
            den, s, t = -den, -s, -t
        if 0 <= s <= den and 0 <= t <= den and den:
            meets.append((i, j, den, s, t))
            if 0 < s < den and 0 < t < den:
                (ax, az), (ex, ez) = a, e
                found.append((i + 1, j + 1, Point(Fraction(ax * den + s * ex, den * scale),
                                                  Fraction(az * den + s * ez, den * scale))))
                continue
        if s and t:
            continue
        (ex, ez), (fx, fz) = e, f
        if adjacent:
            if ex * fx + ez * fz < 0:
                corner = (i + 1, j + 1) if j - i == 1 else (j + 1, i + 1)
                out.append(Violation(ViolationKind.ReversalCorner, edges=corner))
        elif not (wx or wz):
            out.append(Violation(ViolationKind.EndpointContact, point=curve.vertex(i + 1)))
        along, length2 = wx * ex + wz * ez, ex * ex + ez * ez
        if not t and 0 < along < length2:
            on_edge.add(j)
        if not s and 0 < -(wx * fx + wz * fz) < fx * fx + fz * fz:
            on_edge.add(i)
        if not den and not t:
            lo, hi = sorted((along, along + fx * ex + fz * ez))
            if min(hi, length2) > max(lo, 0):
                out.append(Violation(ViolationKind.CollinearOverlap, edges=(i + 1, j + 1)))
    out += [Violation(ViolationKind.VertexOnEdge, point=curve.vertex(k + 1)) for k in on_edge]
    points = Counter(p for _, _, p in found)
    out += [Violation(ViolationKind.TriplePoint, point=p)
            for p, count in points.items() if count > 1]
    return tuple(sorted(found)), tuple(sort_violations(out)), tuple(meets)


def test_meets_of_a_generic_curve_are_its_crossings():
    # the fact the push-off oracle rests on: where the pass finds no
    # violation, two edges that are not adjacent meet only where they
    # cross, so the copy can hit no other pair.  Many non-generic curves
    # have meets that are not crossings
    generic = other_meets = 0
    curves = [*(d.curve for d in walked_diagrams()), *grid_curves(400),
              *(make().curve for make in (trefoil_right, trefoil_left, u_minus, minus_unknot)),
              *(ladder(k).curve for k in (0, 2, 4, 8))]
    for curve in curves:
        found, violations, meets = ref_crossing_scan(curve)
        met = sorted((i + 1, j + 1) for i, j, *_ in meets)
        crossed = [(lo, hi) for lo, hi, _ in found]
        if violations:
            other_meets += met != crossed
        else:
            assert met == crossed
            generic += 1
    assert generic > 400 and other_meets > 200


def scanned_diagrams():
    """The fixtures, the ladder, generated diagrams and their
    stabilizations under both coorientations, and every seeded grid curve, with crossings as
    the small-grid test draws them."""
    yield from (u_minus(), u_minus_forbidden(), minus_unknot(), trefoil_right(),
                trefoil_left(), trefoil_right_alt(), *one_crossing_unknots(8),
                *(ladder(k) for k in (0, 2, 4, 8)))
    for s in range(8):
        for coor in Coorientation:
            d = random_valid_diagram(f"scan{s}", coor)
            yield d
            yield stabilize(d, 1 + s % d.curve.n, 1 + s % 3)
    yield stabilize(trefoil_right(), 5, 4)
    for c in grid_curves(400):
        coor = Coorientation.PLUS if c.n % 2 else Coorientation.MINUS
        yield TransverseDiagram(c, coor, tuple(
            Crossing(lo, hi, p, forced_over(c, coor, lo, hi) or "lo")
            for lo, hi, p in detect_crossings(c)))


def test_pair_pass_equals_the_walk_over_the_sweep():
    # one loop with its own sweep, corners walked apart and crossings
    # kept as int triples finds what the walk over the sweep's pairs
    # found: the same crossings, violations and along-edge order
    kinds = set()
    for d in scanned_diagrams():
        curve = d.curve
        found, violations, _ = ref_crossing_scan(curve)
        assert detect_crossings(curve) == list(found)
        assert curve.genericity_violations == violations
        assert [(lo, hi) for lo, hi, _ in curve.pair_facts[0]] == [(lo, hi) for lo, hi, _ in found]
        assert along_crossings(d) == ref_crossings_along(d)
        kinds.update(v.kind for v in violations)
    assert ViolationKind.TriplePoint in kinds and len(kinds) == 6


def test_lazy_crossings_are_the_crossings_of_their_points():
    # the crossings view, built from a diagram's entries and bits on
    # first read, equals, hashes, prints and sorts as the crossings built
    # from the detected Fraction points, and each reads back its triple
    compared = 0
    for d in scanned_diagrams():
        facts, found = d.curve.pair_facts[0], detect_crossings(d.curve)
        view, eager = [], []
        for over in ("lo", "hi"):
            view += d.with_over({(lo, hi): over for lo, hi, _ in facts}).crossings
            eager += [Crossing(lo, hi, p, over) for lo, hi, p in found]
        assert view == eager and [hash(c) for c in view] == [hash(c) for c in eager]
        assert [repr(c) for c in view] == [repr(c) for c in eager]
        assert [(c.lo, c.hi, c.xzd) for c in view] == list(facts) * 2
        compared += len(view)
        # the same edges at another point: the order is that of (lo, hi,
        # the point's coordinates, over), read from the triples
        if facts:
            lo, hi, (x, z, den) = facts[0]
            view += [Crossing(lo, hi, Point(Fraction(x + 1, den), Fraction(z, den)), "lo"),
                     Crossing(lo, hi, Point(Fraction(x - 1, den), Fraction(z, den)), "hi")]

        def key(c):
            x, z, den = c.xzd
            return c.lo, c.hi, Fraction(x, den), Fraction(z, den), c.over

        for a, b in itertools.product(view, repeat=2):
            assert (a < b) == (key(a) < key(b)) and (a <= b) == (key(a) <= key(b))
    assert compared > 1000


def test_a_sort_of_crossings_reads_no_point(monkeypatch):
    # crossings of one diagram differ in (lo, hi), so sorting them
    # compares no point; the constructor derives the pass's entries and
    # bits, and its view equals the crossings it was given
    d = ladder(8)
    given = d.crossings[::-1]

    def compared(*args):
        pytest.fail("a point was compared")

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, compared)
    again = TransverseDiagram(d.curve, d.coorientation, given)
    monkeypatch.undo()
    assert again.entries == d.entries == d.curve.pair_facts[0] and again.overs == d.overs
    assert again.crossings == given[::-1]


@pytest.mark.parametrize("make", [*(lambda k=k: ladder(k) for k in (0, 2, 4, 8)),
                                  trefoil_right, trefoil_left, u_minus, minus_unknot],
                         ids=["k0", "k2", "k4", "k8", "trefoil_right", "trefoil_left",
                              "u_minus", "minus_unknot"])
def test_oracle_measures_no_distance(monkeypatch, make):
    # an infinitesimal offset needs no feature separation and no offset
    # size: every distance routine the package has refuses to run
    d = make()

    def refuse(*args):
        raise AssertionError("the push-off oracle measured a distance")

    for module in (diagram, geometry, invariants):
        for name in ("least_dist2", "min_feature_separation2", "halvings"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert pushoff_linking_oracle(d) == writhe(d)


def test_direction_predicates_on_small_grid_curves():
    # most are not generic: a reversal or a vertical edge must give the
    # same result or the same error on both sides.  A zero edge is
    # parallel to every reference direction, so the Whitney index search
    # never ends; it is taken only on curves without one.
    for c in grid_curves(400):
        for coor in Coorientation:
            assert outcome(lambda x: check_condition1(x, coor), c) == \
                outcome(lambda x: ref_condition1(x, coor), c)
        if all(a != b for _, a, b in c.edges()):
            assert outcome(whitney_index, c) == outcome(ref_whitney, c)


SMALL_VECS = [Vec(x, z) for x in range(-2, 3) for z in range(-2, 3)]


def test_cone_predicates_on_ints_match_fraction_division():
    boundary = degenerate = 0
    for u, t1, t2 in itertools.product(SMALL_VECS, repeat=3):
        fu, f1, f2 = (Vec(Fraction(v.x), Fraction(v.z)) for v in (u, t1, t2))
        if cross(t1, t2) == 0:
            # parallel generators, a zero one among them
            for args in ((u, t1, t2), (fu, f1, f2)):
                with pytest.raises(DegenerateConeError):
                    in_open_cone(*args)
                with pytest.raises(DegenerateConeError):
                    in_closed_cone(*args)
            degenerate += 1
            continue
        a, b = ref_cone(fu, f1, f2)
        opened, closed = a > 0 and b > 0, a >= 0 and b >= 0
        # the int generators also scaled apart, as by different lcms
        for args in ((u, t1, t2), (fu, f1, f2), (u, scale(t1, 7), scale(t2, 3))):
            assert in_open_cone(*args) is opened
            assert in_closed_cone(*args) is closed
        boundary += closed and not opened
    assert boundary > 1000 and degenerate > 1000


def ref_corner_turns(dirs, r):
    return [turn_sign(d_in, d_out) if corner_sweep_contains(d_in, d_out, r) else 0
            for d_in, d_out in zip(dirs[-1:] + dirs[:-1], dirs)]


def test_corner_turns_on_small_vectors():
    # the corners e -> f and f -> e of the cycle [e, f], for every e, f
    # and r of the small int vectors: zero vectors and r parallel to an
    # edge included, and an exact reversal raises on both sides
    kinds = {0: 0, 1: 0, -1: 0, ReversalError: 0}
    for e, f, r in itertools.product(SMALL_VECS, repeat=3):
        expected = outcome(lambda dirs: ref_corner_turns(dirs, r), [e, f])
        assert outcome(lambda dirs: list(corner_turns(dirs, r)), [e, f]) == expected
        kinds[expected if expected is ReversalError else expected[1]] += 1
    assert min(kinds.values()) > 500


def test_corner_turns_stop_at_the_first_turn():
    # the second corner passes up turning left, and the third is an
    # exact reversal that a full walk raises on
    dirs = [(1, 1), (-1, 1), (1, -1)]
    assert any(corner_turns(dirs, (0, 1)))
    with pytest.raises(ReversalError):
        list(corner_turns(dirs, (0, 1)))


def test_condition1_and_the_whitney_index_share_one_walk(monkeypatch):
    # with no vertical edge the regular direction is UP, which condition
    # 1 walks under Plus, and the curve keeps the walk per direction
    walks = []

    def counted(dirs, r):
        walks.append(tuple(r))
        return corner_turns(dirs, r)

    monkeypatch.setattr(transversality, "corner_turns", counted)
    d = ladder(8)
    assert regular_direction(d.curve.int_directions) == (0, 1)
    assert validate(d).is_valid and whitney_index(d.curve) == 0
    assert pushoff_linking_oracle(d) == writhe(d)
    assert walks == [(0, 1)]
    bent = build_diagram(VERTICAL_EDGE_UNKNOT, Coorientation.PLUS, {(1, 6): "hi"})
    assert regular_direction(bent.curve.int_directions) == (1, 2)
    assert whitney_index(bent.curve) == ref_whitney(bent.curve)
    assert walks == [(0, 1), (1, 2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_single_pushoff_attempts(seed):
    # the finite offset t·u counts the writhe for several u parallel to
    # no edge, -u among them, with t small enough by the reference
    # separation
    d = random_valid_diagram(seed)
    m2 = ref_separation(d)
    dirs = [d.curve.direction(i) for i in range(1, d.curve.n + 1)]
    u = regular_direction(d.curve.int_directions)
    offsets = [u, neg(u), Vec(-3, 1), Vec(2, 7), Vec(-5, -11)]
    offsets = [v for v in offsets if not any(is_parallel(v, t) for t in dirs)]
    assert len(offsets) >= 4
    for v in offsets:
        t = Fraction(1)
        while t * t * dot(v, v) > m2 / 16:
            t /= 2
        assert ref_pushoff_once(d, Vec(v.x * t, v.z * t)) == writhe(d)


def grid_curves(count):
    """Seeded small-grid curves, most of them non-generic."""
    rng = random.Random("kernel-grid")
    for _ in range(count):
        n = rng.randint(3, 7)
        g = rng.choice((2, 3, 4))
        yield PolyCurve(tuple(
            Point(Fraction(rng.randint(0, g), rng.choice((1, 2))),
                  Fraction(rng.randint(0, g), rng.choice((1, 3))))
            for _ in range(n)
        ))


def test_small_grid_curves_hit_every_genericity_kind():
    kinds = set()
    for c in grid_curves(400):
        coor = Coorientation.PLUS if c.n % 2 else Coorientation.MINUS
        crossings = tuple(
            Crossing(lo, hi, p, forced_over(c, coor, lo, hi) or "lo")
            for lo, hi, p in detect_crossings(c)
        )
        assert_kernel_matches(TransverseDiagram(c, coor, crossings))
        kinds.update(v.kind for v in c.genericity_violations)
    assert kinds == {
        ViolationKind.ZeroEdge, ViolationKind.ReversalCorner, ViolationKind.EndpointContact,
        ViolationKind.CollinearOverlap, ViolationKind.TriplePoint, ViolationKind.VertexOnEdge,
    }


def primes_from(start):
    p = start
    while True:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            yield p
        p += 1


def test_pairwise_coprime_prime_denominators():
    # every coordinate of a valid diagram nudged by 1/q, a distinct prime
    # q each, so the common scale is the product of all of them
    host = random_valid_diagram(3)
    primes = primes_from(1000)
    verts = tuple(Point(p.x + Fraction(1, next(primes)), p.z + Fraction(1, next(primes)))
                  for p in host.curve.vertices)
    curve = PolyCurve(verts)
    over = {(c.lo, c.hi): c.over for c in host.crossings}
    d = TransverseDiagram(curve, host.coorientation, tuple(
        Crossing(lo, hi, p, over[lo, hi]) for lo, hi, p in detect_crossings(curve)
    ))
    assert validate(d).is_valid and d.crossings
    common, _ = curve.scaled
    assert common & (common - 1) != 0  # not a power of two
    assert all(common % c.denominator == 0 for p in verts for c in p)
    assert_kernel_matches(d)
