import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transknot.errors import DegenerateConeError, ReversalError
from transknot.geometry import (
    Point,
    Vec,
    box,
    box_meeting_pairs,
    box_overlapping_pairs,
    corner_sweep_contains,
    cross,
    dist2,
    dot,
    halvings,
    in_closed_cone,
    in_open_cone,
    is_parallel,
    neg,
    pair_determinants,
    point_in_open_segment,
    point_segment_dist2,
    same_direction,
    scale,
    segment_crossing,
    segment_intersection,
    sign,
    turn_sign,
    vec,
)

from fraction_routines import add, fraction_halvings


def P(x, z) -> Point:
    return Point(Fraction(x), Fraction(z))


def V(x, z) -> Vec:
    return Vec(Fraction(x), Fraction(z))


def test_vector_basics():
    assert vec(P(1, 2), P(4, 0)) == V(3, -2)
    assert add(P(1, 2), V(3, -2)) == P(4, 0)
    assert scale(V(3, -2), Fraction(1, 2)) == V(Fraction(3, 2), -1)
    assert neg(V(3, -2)) == V(-3, 2)
    assert cross(V(1, 0), V(0, 1)) == 1
    assert cross(V(0, 1), V(1, 0)) == -1
    assert dot(V(1, 2), V(3, -1)) == 1
    assert sign(Fraction(-7, 3)) == -1
    assert sign(0) == 0
    assert sign(5) == 1


def test_parallel_predicates():
    assert is_parallel(V(2, 4), V(1, 2))
    assert is_parallel(V(2, 4), V(-1, -2))
    assert not is_parallel(V(2, 4), V(1, 3))
    assert same_direction(V(2, 4), V(1, 2))
    assert not same_direction(V(2, 4), V(-1, -2))
    assert not same_direction(V(2, 4), V(4, 2))


def test_segment_intersection_symmetric_x():
    assert segment_intersection(P(0, 0), P(2, 2), P(0, 2), P(2, 0)) == P(1, 1)


def test_segment_intersection_disjoint_collinear():
    assert segment_intersection(P(0, 0), P(1, 0), P(2, 0), P(3, 0)) is None


def test_segment_intersection_exact_rational():
    assert segment_intersection(P(-1, -1), P(1, 1), P(1, -1), P(-1, 1)) == P(0, 0)


def test_segment_intersection_interior_only():
    # shared endpoint does not count
    assert segment_intersection(P(0, 0), P(1, 1), P(1, 1), P(2, 0)) is None
    # T-contact: endpoint of one segment interior to the other
    assert segment_intersection(P(0, 0), P(2, 0), P(1, 0), P(1, 1)) is None
    # genuinely disjoint
    assert segment_intersection(P(0, 0), P(1, 1), P(5, 0), P(6, 1)) is None
    # parallel
    assert segment_intersection(P(0, 0), P(2, 0), P(0, 1), P(2, 1)) is None


def test_segment_intersection_fractional_result():
    p = segment_intersection(P(0, 0), P(3, 1), P(1, 1), P(2, -1))
    assert p is not None
    assert p == Point(Fraction(9, 7), Fraction(3, 7))
    # int points give the same exact point, never floats
    q = segment_intersection(Point(0, 0), Point(3, 1), Point(1, 1), Point(2, -1))
    assert q == p and all(isinstance(c, Fraction) for c in q)


def test_in_open_cone():
    up = V(0, 1)
    assert in_open_cone(up, V(1, 1), V(-1, 1))
    assert not in_open_cone(up, V(1, 0), V(1, 1))
    # boundary rays are excluded
    assert not in_open_cone(V(1, 1), V(1, 1), V(0, 1))
    assert not in_open_cone(V(2, 2), V(1, 1), V(0, 1))
    # order of the generators does not matter
    assert in_open_cone(up, V(-1, 1), V(1, 1))


def test_in_open_cone_degenerate():
    with pytest.raises(DegenerateConeError):
        in_open_cone(V(0, 1), V(1, 1), V(-1, -1))
    with pytest.raises(DegenerateConeError):
        in_open_cone(V(0, 1), V(1, 1), V(2, 2))


def test_in_closed_cone():
    up = V(0, 1)
    assert in_closed_cone(up, V(1, 1), V(-1, 1))
    assert in_closed_cone(V(1, 1), V(1, 1), V(0, 1))
    assert in_closed_cone(V(3, 3), V(1, 1), V(0, 1))
    assert not in_closed_cone(V(1, -1), V(1, 1), V(0, 1))
    with pytest.raises(DegenerateConeError):
        in_closed_cone(up, V(1, 0), V(-2, 0))


def test_corner_sweep_contains():
    up = V(0, 1)
    assert corner_sweep_contains(V(1, 1), V(-1, 1), up)
    assert not corner_sweep_contains(V(1, 0), V(1, 1), up)
    assert corner_sweep_contains(V(1, -1), V(-1, -1), V(0, -1))
    # the sweep is open: its endpoints are not contained
    assert not corner_sweep_contains(V(1, 1), V(-1, 1), V(1, 1))
    assert not corner_sweep_contains(V(1, 1), V(-1, 1), V(-2, 2))
    # straight corner sweeps nothing
    assert not corner_sweep_contains(V(1, 1), V(2, 2), up)


def test_corner_sweep_reversal():
    with pytest.raises(ReversalError):
        corner_sweep_contains(V(1, 1), V(-1, -1), V(0, 1))


def test_turn_sign():
    assert turn_sign(V(1, 0), V(0, 1)) == 1
    assert turn_sign(V(1, 0), V(0, -1)) == -1
    assert turn_sign(V(1, 0), V(2, 0)) == 0
    with pytest.raises(ReversalError):
        turn_sign(V(1, 2), V(-2, -4))


def test_point_in_open_segment():
    assert point_in_open_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not point_in_open_segment(P(0, 0), P(0, 0), P(2, 2))
    assert not point_in_open_segment(P(2, 2), P(0, 0), P(2, 2))
    assert not point_in_open_segment(P(3, 3), P(0, 0), P(2, 2))
    assert not point_in_open_segment(P(1, 0), P(0, 0), P(2, 2))


def ref_overlap(a, b, c, d) -> bool:
    """Whether ab and cd share more than one point on one line, by the
    formula of the genericity pass before it took ``pair_determinants``."""
    e = vec(a, b)
    if e == (0, 0) or vec(c, d) == (0, 0):
        return False
    if cross(e, vec(c, d)) != 0 or cross(e, vec(a, c)) != 0:
        return False
    lo, hi = sorted((dot(vec(a, c), e), dot(vec(a, d), e)))
    return min(hi, dot(e, e)) > max(lo, 0)


def test_pair_determinants_decide_every_pair_test():
    # every ordered pair of segments with ends on the grid {0,1,2}², the
    # zero-length ones included
    grid = list(itertools.product(range(3), repeat=2))
    segments = list(itertools.product(grid, repeat=2))
    found = {"crossing": 0, "contact": 0, "overlap": 0}
    for (a, b), (c, d) in itertools.product(segments, repeat=2):
        e, f = vec(a, b), vec(c, d)
        den, s, t, wx, wz = pair_determinants(a, e, c, f)
        assert (wx, wz) == vec(a, c)
        if den < 0:
            den, s, t = -den, -s, -t
        crossing = (s, den) if 0 < s < den and 0 < t < den else None
        assert crossing == segment_crossing(a, b, c, d)
        ee, ff = dot(e, e), dot(f, f)
        assert (t == 0 and 0 < wx * e.x + wz * e.z < ee) == point_in_open_segment(c, a, b)
        assert (s == 0 and 0 < -(wx * f.x + wz * f.z) < ff) == point_in_open_segment(a, c, d)
        if ee:  # the push-off oracle's test of c on the closed segment ab
            assert (t == 0 and 0 <= wx * e.x + wz * e.z <= ee) == \
                (c in (a, b) or point_in_open_segment(c, a, b))
        along = wx * e.x + wz * e.z
        lo, hi = sorted((along, along + dot(f, e)))
        overlap = den == 0 and t == 0 and min(hi, ee) > max(lo, 0)
        assert overlap == ref_overlap(a, b, c, d)
        found["crossing"] += crossing is not None
        found["contact"] += point_in_open_segment(c, a, b)
        found["overlap"] += overlap
    assert all(found.values())  # the grid holds pairs of every kind


def test_distances():
    assert dist2(P(0, 0), P(3, 4)) == 25
    assert point_segment_dist2(P(0, 1), P(-1, 0), P(1, 0)) == 1
    # projection beyond an endpoint clamps to that endpoint
    assert point_segment_dist2(P(5, 1), P(-1, 0), P(1, 0)) == 17
    assert point_segment_dist2(P(1, 1), P(0, 0), P(2, 2)) == 0
    assert point_segment_dist2(P(2, 0), P(0, 0), P(4, 2)) == Fraction(4, 5)


def _angle(v: Vec) -> float:
    return math.atan2(float(v.z), float(v.x))


def _wrap(theta: float) -> float:
    while theta <= -math.pi:
        theta += 2 * math.pi
    while theta > math.pi:
        theta -= 2 * math.pi
    return theta


def _random_vec(rng: random.Random) -> Vec:
    while True:
        x, z = rng.randint(-9, 9), rng.randint(-9, 9)
        if x or z:
            return V(x, z)


EPS = 1e-9


def test_corner_sweep_matches_float_angles():
    """Exact sweep membership agrees with naive floating-point angles.

    Cases within EPS of a boundary are skipped; everything else must
    match the float computation exactly.
    """
    rng = random.Random(20260815)
    checked = 0
    for _ in range(10000):
        d_in, d_out, u = (_random_vec(rng) for _ in range(3))
        if is_parallel(d_in, d_out):
            continue
        delta = _wrap(_angle(d_out) - _angle(d_in))
        rel = _wrap(_angle(u) - _angle(d_in))
        if min(abs(rel), abs(rel - delta), abs(delta)) < EPS:
            continue
        expected = 0 < rel < delta if delta > 0 else delta < rel < 0
        assert corner_sweep_contains(d_in, d_out, u) == expected
        checked += 1
    assert checked > 5000


def test_open_cone_matches_float_solve():
    """Exact cone membership agrees with solving u = a*t1 + b*t2 in floats."""
    rng = random.Random(8151113)
    checked = 0
    for _ in range(10000):
        t1, t2, u = (_random_vec(rng) for _ in range(3))
        det = float(cross(t1, t2))
        if det == 0:
            continue
        a = float(cross(u, t2)) / det
        b = float(cross(t1, u)) / det
        if min(abs(a), abs(b)) < EPS:
            continue
        assert in_open_cone(u, t1, t2) == (a > 0 and b > 0)
        checked += 1
    assert checked > 5000


def _within(s, t, reach):
    """The closed-box gap test: both gaps, in x and in z, at most reach."""
    return (t[0] - s[1] <= reach and s[0] - t[1] <= reach
            and t[2] - s[3] <= reach and s[2] - t[3] <= reach)


def _random_boxes(rng, count):
    # small negative and positive ints: point boxes, ties in xlo and boxes
    # that meet in x but lie apart in z are common
    boxes = []
    for _ in range(count):
        xlo, zlo = rng.randint(-6, 6), rng.randint(-6, 6)
        boxes.append((xlo, xlo + rng.choice((0, 0, 1, 2, 5)),
                      zlo, zlo + rng.choice((0, 0, 1, 2, 5))))
    return boxes


def _apart_only_in_z(s, t, reach):
    return _within(s[:2] + t[2:], t, reach) and not _within(s, t, reach)


@pytest.mark.parametrize("reach", [0, 1, 3])
def test_box_overlapping_pairs_matches_all_pairs(reach):
    rng = random.Random(11 + reach)
    apart_in_z = 0
    for _ in range(300):
        boxes = _random_boxes(rng, rng.randint(0, 8))
        pairs = list(itertools.combinations(range(len(boxes)), 2))
        want = {(s, t) for s, t in pairs if _within(boxes[s], boxes[t], reach)}
        got = list(box_overlapping_pairs(boxes, reach))
        assert len(got) == len(want) and set(got) == want
        apart_in_z += sum(_apart_only_in_z(boxes[s], boxes[t], reach) for s, t in pairs)
    assert apart_in_z > 100


@pytest.mark.parametrize("reach", [0, 1, 3])
def test_box_meeting_pairs_matches_all_red_blue_pairs(reach):
    rng = random.Random(20260 + reach)
    apart_in_z = same_xlo = 0
    for _ in range(300):
        red = _random_boxes(rng, rng.randint(0, 8))
        blue = _random_boxes(rng, rng.randint(0, 8))
        pairs = list(itertools.product(range(len(red)), range(len(blue))))
        want = {(r, b) for r, b in pairs if _within(red[r], blue[b], reach)}
        got = list(box_meeting_pairs(red, blue, reach))
        assert len(got) == len(set(got)) and set(got) == want
        apart_in_z += sum(_apart_only_in_z(red[r], blue[b], reach) for r, b in pairs)
        same_xlo += sum(red[r][0] == blue[b][0] for r, b in want)
    assert apart_in_z > 100 and same_xlo > 50


def test_box_meeting_pairs_edge_cases():
    assert list(box_meeting_pairs([], [(0, 1, 0, 1)])) == []
    assert list(box_meeting_pairs([(0, 1, 0, 1)], [])) == []
    assert list(box_overlapping_pairs([])) == []
    # equal xlo across the colours, point boxes, negative coordinates;
    # blue 3 meets red 1 in x but lies 2 above it in z
    red = [(-3, -3, 0, 0), (-3, 2, -1, 1)]
    blue = [(-3, -3, 0, 0), (2, 2, 1, 1), (-5, -4, 0, 0), (0, 1, 3, 4)]
    assert sorted(box_meeting_pairs(red, blue)) == [(0, 0), (1, 0), (1, 1)]
    assert sorted(box_meeting_pairs(red, blue, 1)) == [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert sorted(box_meeting_pairs(red, blue, 2)) == [
        (0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert box(P(2, -1), P(-3, 4)) == box(P(-3, 4), P(2, -1)) == (-3, 2, -1, 4)


BOXES = st.lists(st.builds(lambda x, w, z, h: (x, x + w, z, z + h), st.integers(-8, 8),
                           st.integers(0, 4), st.integers(-8, 8), st.integers(0, 4)),
                 max_size=8)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(BOXES, BOXES, st.integers(0, 3))
def test_box_sweeps_yield_exactly_the_pairs_within_reach(red, blue, reach):
    assert sorted(box_meeting_pairs(red, blue, reach)) == [
        (r, b) for r, b in itertools.product(range(len(red)), range(len(blue)))
        if _within(red[r], blue[b], reach)]
    both = red + blue
    assert sorted(box_overlapping_pairs(both, reach)) == [
        (s, t) for s, t in itertools.combinations(range(len(both)), 2)
        if _within(both[s], both[t], reach)]


def test_halvings_on_ints_matches_the_fraction_loop():
    rng = random.Random("halvings")

    def value(low):
        num = rng.randint(low, 10 ** rng.randint(0, 30))
        if rng.random() < 0.3:
            return num
        return Fraction(num, rng.randint(1, 2 ** rng.randint(0, 200)))

    for _ in range(3000):
        size2, room2 = value(0), value(1)
        assert halvings(size2, room2) == fraction_halvings(size2, room2)
    # at the boundary: 16 * size2 == room2 * 4**e exactly
    for e in range(6):
        room2 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        size2 = room2 * 4**e / 16
        assert halvings(size2, room2) == fraction_halvings(size2, room2) == e
        assert halvings(size2 + Fraction(1, 10**9), room2) == e + 1
