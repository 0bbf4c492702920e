"""The int kernel against the Fraction reference predicates.

``detected_crossings``, ``genericity_violations``,
``min_feature_separation2`` and the push-off oracle run on vertices
scaled to ints and compare only features whose x-extents meet.  Each is
checked with ``==`` against a plain all-pairs loop over the Fraction
predicates of ``transknot.geometry``.
"""

import random
from fractions import Fraction

import pytest

from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    Violation,
    ViolationKind,
    min_feature_separation2,
    sort_violations,
)
from transknot.errors import OracleError, TransknotError
from transknot.geometry import (
    Point,
    Vec,
    add,
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
from transknot.invariants import _pushoff_once, pushoff_linking_oracle
from transknot.moves_singular import random_valid_diagram, stabilize
from transknot.transversality import forced_over, validate

# --- the reference: all pairs, Fraction arithmetic -------------------------


def ref_crossings(curve):
    n = curve.n
    found = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if curve.adjacent_edges(i, j):
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
    for i, d_in, d_out in curve.corners():
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


def ref_separation(d):
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
                over_is_i = by_pair[pair].over_edge == i
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
    raise OracleError("no admissible push-off offset found")


def outcome(fn, d):
    try:
        return fn(d)
    except TransknotError as e:
        return type(e)


def assert_kernel_matches(d):
    curve = d.curve
    assert curve.detected_crossings == ref_crossings(curve)
    assert curve.genericity_violations == ref_genericity(curve)
    assert outcome(min_feature_separation2, d) == outcome(ref_separation, d)
    if validate(d).is_valid:
        assert outcome(pushoff_linking_oracle, d) == outcome(ref_oracle, d)


# --- inputs ----------------------------------------------------------------

SEEDS = range(4)


@pytest.mark.parametrize("coor", list(Coorientation))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_diagrams_and_their_stabilizations(seed, coor):
    d = random_valid_diagram(seed, coor)
    assert_kernel_matches(d)
    assert_kernel_matches(stabilize(d, 1 + seed % d.curve.n, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_pushoff_attempts(seed):
    # offsets u / 2**e, among them differences of two vertices, which put
    # a vertex of the copy on a vertex of the original
    d = random_valid_diagram(seed)
    v = d.curve.vertices
    offsets = [(1, 1), (1, 2), (-3, 1), (int(v[2].x - v[0].x), int(v[2].z - v[0].z))]
    for ux, uz in offsets:
        for e in range(3):
            want = ref_pushoff_once(d, Vec(Fraction(ux, 2**e), Fraction(uz, 2**e)))
            assert _pushoff_once(d, Vec(ux, uz), e) == want


@pytest.mark.parametrize("ux, uz, e", [(0, -1, 0), (0, -2, 1), (0, 1, 0), (4, 0, 0)])
def test_pushoff_attempt_rejects_a_vertex_on_the_other_curve(ux, uz, e):
    # the shifted triangle touches the original only at a vertex: on an
    # edge's interior, below and above, or on the vertex (4, 0)
    tri = TransverseDiagram(
        PolyCurve((Point(Fraction(0), Fraction(0)), Point(Fraction(4), Fraction(0)),
                   Point(Fraction(2), Fraction(1)))),
        Coorientation.PLUS, (),
    )
    assert ref_pushoff_once(tri, Vec(Fraction(ux, 2**e), Fraction(uz, 2**e))) is None
    assert _pushoff_once(tri, Vec(ux, uz), e) is None


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
            for lo, hi, p in c.detected_crossings
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
        Crossing(lo, hi, p, over[lo, hi]) for lo, hi, p in curve.detected_crossings
    ))
    assert validate(d).is_valid and d.crossings
    common, _ = curve.scaled
    assert common & (common - 1) != 0  # not a power of two
    assert all(common % c.denominator == 0 for p in verts for c in p)
    assert_kernel_matches(d)
