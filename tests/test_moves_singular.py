import hashlib
import itertools
import math
import random
import re
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transknot.moves_singular as ms
from transknot.cli import dispatch
from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    build_diagram,
    detect_crossings,
    parse_diagram,
    serialize_diagram,
    splice,
)
from transknot.errors import (
    FamilyArityError,
    HostTooShortError,
    InadmissibleDoublePointError,
    InvalidDiagramError,
    TransknotError,
)
from transknot.fixtures import (
    minus_unknot,
    trefoil_left,
    trefoil_right,
    u_minus,
    u_minus_forbidden,
)
from transknot.geometry import Point, dist2, halvings, scale, vec
from transknot.invariants import (
    crossing_sign,
    pushoff_linking_oracle,
    self_linking,
    v2,
    writhe,
)
from transknot.moves_singular import (
    FRAMING_PROJECTION,
    V2_INVARIANT,
    WRITHE_INVARIANT,
    SingularDiagram,
    _anchors,
    _bend_vertical,
    is_order_at_most,
    make_singular,
    pullback_framed_invariant,
    random_valid_diagram,
    resolve,
    singular_family,
    stabilize,
    vassiliev_defect,
)
from transknot.transversality import (check_validity, forced_over, over_for_sign, reference,
                                      validate, whitney_index)

from fraction_routines import add, fraction_halvings


LADDER_K8 = (Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ladder"
             / "trefoil_right-e1-k8.td")


def vertical_edge_unknot() -> TransverseDiagram:
    """U_MINUS variant whose edge 9 runs straight down."""
    verts = [
        (-1, -1), (1, 1), (2, 1), (3, 0), (2, -1), (1, -1),
        (-1, 1), (-2, 1), (-3, 0), (-3, -1), (-2, -1),
    ]
    return build_diagram(verts, Coorientation.PLUS, {(1, 6): "hi"})


def vertical_edge_unknot_minus() -> TransverseDiagram:
    verts = [
        (-1, 1), (1, -1), (2, -1), (3, 0), (2, 1), (1, 1),
        (-1, -1), (-2, -1), (-3, 0), (-3, 1), (-2, 1),
    ]
    return build_diagram(verts, Coorientation.MINUS, {(1, 6): "lo"})


def spiked_vertical_unknot(tip_z: Fraction) -> TransverseDiagram:
    """vertical_edge_unknot with a spike, edges 9 and 10, whose tip lies
    1/1000 right of the vertical edge 13, at height tip_z."""
    verts = [
        (-1, -1), (1, 1), (2, 1), (3, 0), (2, -1), (1, -1), (-1, 1), (-2, 1),
        (-2, Fraction(1, 5)), (Fraction(-2999, 1000), tip_z),
        (-2, Fraction(-3, 10)), (Fraction(-5, 2), Fraction(-1, 2)),
        (-3, 0), (-3, -1), (-2, -1),
    ]
    return build_diagram(verts, Coorientation.PLUS, {(1, 6): "hi", (9, 12): "hi", (10, 12): "hi"})


def looped_vertical_unknot() -> TransverseDiagram:
    """vertical_edge_unknot with a loop whose edges 9 and 11 both cross the
    vertical edge 14, and cross each other at (-191/64, -1/8), 1/64 right
    of it.  Every vertex lies at least 1/4 from edge 14."""
    verts = [
        (-1, -1), (1, 1), (2, 1), (3, 0), (2, -1), (1, -1), (-1, 1), (-2, 1),
        (Fraction(-5, 2), Fraction(-33, 512)), (Fraction(-7, 2), Fraction(-97, 512)),
        (Fraction(-15, 4), Fraction(-65, 128)), (Fraction(-5, 2), Fraction(15, 128)),
        (Fraction(-9, 4), Fraction(-1, 2)), (-3, 0), (-3, -1), (-2, -1),
    ]
    over = {(1, 6): "hi", (8, 12): "hi", (9, 11): "lo", (9, 13): "hi", (9, 14): "hi",
            (11, 13): "hi", (11, 14): "hi"}
    return build_diagram(verts, Coorientation.PLUS, over)


def vertical_hosts(seeds):
    """(diagram, host) for every edge of random_valid_diagram(seed, coor)
    that points along the allowed vertical sense (down under Plus, up
    under Minus), split halfway down its height into a vertical piece,
    edge host, and the rest, where the split diagram is valid.  The
    split moves crossings, so its crossings are the detected ones, drawn
    with the forced over bit or else "lo"."""
    for seed in seeds:
        for coor in Coorientation:
            d = random_valid_diagram(seed, coor)
            for host in range(1, d.curve.n + 1):
                a, b = d.curve.edge(host)
                if (b.z - a.z) * reference(coor).z < 0:
                    verts = list(d.curve.vertices)
                    verts.insert(host, Point(a.x, (a.z + b.z) / 2))
                    curve = PolyCurve(tuple(verts))
                    crossings = [Crossing(lo, hi, p, forced_over(curve, coor, lo, hi) or "lo")
                                 for lo, hi, p in detect_crossings(curve)]
                    split = TransverseDiagram(curve, coor, tuple(crossings))
                    if validate(split).is_valid:
                        yield split, host


@cache
def small_vertical_hosts() -> tuple:
    return tuple(vertical_hosts(range(6)))


DYADIC = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-8, 8), st.integers(0, 4))
POSITIVE_DYADIC = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(1, 8),
                            st.integers(0, 4))


def count_calls(monkeypatch, name: str) -> list:
    """Patch transknot.moves_singular.<name> to record each call's arguments."""
    calls, original = [], getattr(ms, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ms, name, counted)
    return calls


def test_halvings_on_ints_gives_what_the_fraction_loop_gave(monkeypatch):
    # stabilize and the bend of a vertical host pass it ints and Fractions
    calls = count_calls(monkeypatch, "halvings")
    for d in [trefoil_right(), trefoil_left(), u_minus(), minus_unknot()]:
        for host in range(1, d.curve.n + 1):
            stabilize(d, host, 3)
    _bend_vertical(spiked_vertical_unknot(Fraction(-1, 20)), 13)
    assert {type(a) for args in calls for a in args} == {int, Fraction}
    assert [halvings(*args) for args in calls] == [fraction_halvings(*args) for args in calls]


def splice_points(d: TransverseDiagram, host: int, path, new):
    """``splice`` of the Fraction points ``path`` and ``new``: each point
    p goes in as (0, p - a) over a common den, for edge host starting at a."""
    a = d.curve.vertex(host)
    offsets = [vec(a, p) for p in [*path, *new]]
    den = math.lcm(*(c.denominator for u in offsets for c in u))
    triples = [(0, int(u.x * den), int(u.z * den)) for u in offsets]
    return splice(d, host, den, triples[:len(path)], triples[len(path):])


def new_crossings(before: TransverseDiagram, after: TransverseDiagram):
    old_points = {c.point for c in before.crossings}
    return [c for c in after.crossings if c.point not in old_points]


def coord_bits(d: TransverseDiagram) -> int:
    """Largest numerator or denominator bit length among the vertices."""
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for p in d.curve.vertices
        for c in p
    )


def check_stabilized(before: TransverseDiagram, after: TransverseDiagram, k: int):
    """The invariant facts of a k-fold stabilization."""
    assert validate(after).is_valid
    assert len(after.crossings) == len(before.crossings) + 2 * k
    assert [crossing_sign(after, c) for c in new_crossings(before, after)] == [-1] * (2 * k)
    assert self_linking(after) == self_linking(before) - 2 * k
    assert v2(after) == v2(before)
    assert whitney_index(after.curve) == 0
    assert pushoff_linking_oracle(after) == self_linking(after)


def crossing_data(d: TransverseDiagram) -> list:
    return sorted((c.point, c.over) for c in d.crossings)


class TestStabilize:
    @pytest.mark.parametrize("host", range(1, 11))
    def test_every_host_edge_of_u_minus(self, host):
        d = stabilize(u_minus(), host, 1)
        assert validate(d).is_valid
        assert len(d.crossings) == 3
        assert self_linking(d) == -3

    def test_detour_adds_two_negative_crossings(self):
        before = trefoil_right()
        after = stabilize(before, 5, 1)
        added = new_crossings(before, after)
        assert len(added) == 2
        assert [crossing_sign(after, c) for c in added] == [-1, -1]

    def test_invariant_bookkeeping(self):
        before = trefoil_right()
        for k in (1, 2, 3):
            after = stabilize(before, 5, k)
            assert validate(after).is_valid
            assert len(after.crossings) == len(before.crossings) + 2 * k
            assert self_linking(after) == self_linking(before) - 2 * k
            assert v2(after) == v2(before)
            assert whitney_index(after.curve) == 0
            assert pushoff_linking_oracle(after) == self_linking(after)

    def test_host_edge_carrying_crossings(self):
        # trefoil edge 6 meets two crossings; the splice must dodge them
        d = stabilize(trefoil_right(), 6, 1)
        assert validate(d).is_valid
        assert self_linking(d) == -1

    def test_vertical_host_is_bent_first(self):
        d = vertical_edge_unknot()
        assert d.curve.direction(9).x == 0
        out = stabilize(d, 9, 1)
        assert validate(out).is_valid
        assert self_linking(out) == self_linking(d) - 2

    def test_vertical_host_minus_coorientation(self):
        d = vertical_edge_unknot_minus()
        assert d.curve.direction(9).x == 0
        out = stabilize(d, 9, 1)
        assert validate(out).is_valid
        assert self_linking(out) == self_linking(d) - 2

    def test_coordinates_stay_bounded(self):
        # the detours share one scale; spliced one after another, each
        # into the rest of the host edge, they reached 176 bits here
        before = trefoil_right()
        after = stabilize(before, 1, 16)
        assert coord_bits(after) <= 32
        check_stabilized(before, after, 16)

    @pytest.mark.parametrize("make", [trefoil_right, minus_unknot])
    @pytest.mark.parametrize("count", [1, 3])
    def test_host_midpoint_on_crossing(self, make, count):
        # with an odd count one anchor is the midpoint, so the anchors
        # must shift off the crossing there
        before = make()
        a, b = before.curve.edge(1)
        mid = ((a.x + b.x) / 2, (a.z + b.z) / 2)
        assert any(tuple(c.point) == mid for c in before.crossings)
        check_stabilized(before, stabilize(before, 1, count), count)

    @pytest.mark.parametrize("make", [vertical_edge_unknot, vertical_edge_unknot_minus])
    @pytest.mark.parametrize("count", [2, 3])
    def test_vertical_host_several_loops(self, make, count):
        before = make()
        check_stabilized(before, stabilize(before, 9, count), count)

    # The spike's tip lies 1/1000 right of edge 13, 1/20 or 3/10 below
    # its top, and at 1/20 the spike also crosses edge 12 within 1/25 of
    # the host.  A bend across the whole host, a -> m' -> b, would take
    # the tip inside it; the bend stays within 1/16 (tip at 1/20) or
    # 1/32 (tip at 3/10) of the anchor, inside its clearance.
    @pytest.mark.parametrize("tip_z", [Fraction(-1, 20), Fraction(-3, 10)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_vertical_host_is_bent_in_one_attempt(self, monkeypatch, tip_z, k):
        d = spiked_vertical_unknot(tip_z)
        assert d.curve.direction(13).x == 0
        splices = count_calls(monkeypatch, "splice")
        _bend_vertical(d, 13)
        assert len(splices) == 1
        check_stabilized(d, stabilize(d, 13, k), k)

    def test_bend_clears_crossings_near_the_host(self, monkeypatch):
        # edges 9 and 11 both cross the host and cross each other 1/64
        # right of it; the bend keeps to its anchor's clearance, so every
        # crossing stays where it was
        d = looped_vertical_unknot()
        (f,), r2 = _anchors(d, 14, 1)
        anchor = add(d.curve.vertex(14), scale(d.curve.direction(14), f))
        splices = count_calls(monkeypatch, "splice")
        bent = _bend_vertical(d, 14)
        assert len(splices) == 1
        assert crossing_data(bent) == crossing_data(d)
        verts = bent.curve.vertices
        assert verts[:14] + verts[17:] == d.curve.vertices
        (h2,) = {dist2(p, anchor) for p in verts[14:17]}
        assert 16 * h2 <= r2
        after = stabilize(d, 14, 1)
        check_stabilized(d, after, 1)
        assert after == stabilize(bent, 15, 1)

    def test_generated_vertical_hosts_bend_once(self, monkeypatch):
        hosts = list(vertical_hosts(range(20)))
        assert len(hosts) == 134
        assert {d.coorientation for d, _ in hosts} == set(Coorientation)
        # the split puts some crossings on the vertical piece itself
        assert sum(any(host in (c.lo, c.hi) for c in d.crossings) for d, host in hosts) == 5
        splices = count_calls(monkeypatch, "splice")
        for d, host in hosts:
            del splices[:]
            bent = _bend_vertical(d, host)
            assert len(splices) == 1
            assert crossing_data(bent) == crossing_data(d)
            after = stabilize(d, host, 2)
            check_stabilized(d, after, 2)
            assert after == stabilize(bent, host + 1, 2)

    # (x, z) -> (a*x + c, b*x + d*z + e) with a, d > 0 keeps verticals
    # vertical with their sense, keeps cones, the sign of every tangent's
    # x and of every cross product, so the image of a valid diagram, with
    # the images of its crossings, is valid
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(), a=POSITIVE_DYADIC, b=DYADIC, c=DYADIC, d=POSITIVE_DYADIC,
           e=DYADIC)
    def test_sheared_vertical_hosts_stabilize(self, data, a, b, c, d, e):
        before, host = data.draw(st.sampled_from(small_vertical_hosts()))

        def image(p):
            return Point(a * p.x + c, b * p.x + d * p.z + e)

        curve = PolyCurve(tuple(image(p) for p in before.curve.vertices))
        crossings = [Crossing(x.lo, x.hi, image(x.point), x.over) for x in before.crossings]
        sheared = TransverseDiagram(curve, before.coorientation, tuple(crossings))
        for k in (1, 2, 3):
            check_stabilized(sheared, stabilize(sheared, host, k), k)

    def test_splice_needs_every_expected_crossing(self):
        d = u_minus()
        assert splice_points(d, 3, [], []) == d
        # a crossing the splice expects but the new curve lacks fails it
        assert splice_points(d, 3, [], [Point(Fraction(9), Fraction(9))]) is None
        # and so does a new point at an old crossing, which stays one crossing
        (c,) = d.crossings
        assert splice_points(d, 3, [], [c.point]) is None
        # a vertex that moves the crossing of edges 1 and 6 from (0, 0) to
        # (-1/5, 1/5) fails it, with the new point expected or not: the
        # count of crossings is 1 without it, so only the point tells
        bend = [Point(Fraction(0), Fraction(1, 2))]
        assert splice_points(d, 1, bend, [Point(Fraction(-1, 5), Fraction(1, 5))]) is None
        assert splice_points(d, 1, bend, []) is None
        # a vertex on edge 5 leaves every crossing where it was, but the
        # curve is not generic, which fails it
        assert splice_points(d, 2, [Point(Fraction(3, 2), Fraction(-1))], []) is None
        # a spike from edge 2 crosses edge 5 twice, which fails it unless
        # both points are expected; those two then take sign -1
        spike = [Point(Fraction(3, 2), Fraction(-2))]
        new = [Point(Fraction(4, 3), Fraction(-1)), Point(Fraction(5, 3), Fraction(-1))]
        assert splice_points(d, 2, spike, []) is None
        assert splice_points(d, 2, spike, new[:1]) is None
        out = splice_points(d, 2, spike, new)
        assert set(crossing_data(d)) < set(crossing_data(out))
        assert [crossing_sign(out, c) for c in new_crossings(d, out)] == [-1, -1]

    def test_splices_keep_the_scale_canonical(self):
        # the serialized text reduces every coordinate, so only the ints
        # show a scale with a factor all the scaled points share
        rng = random.Random(19)
        diagrams = [trefoil_right(), trefoil_left(), u_minus(), minus_unknot()]
        diagrams += [random_valid_diagram(s, c) for s in range(6) for c in Coorientation]
        outs = [stabilize(d, rng.randint(1, d.curve.n), rng.choice((1, 2, 3, 5)))
                for d in diagrams for _ in range(4)]
        outs += [_bend_vertical(d, host) for d, host in vertical_hosts(range(3))]
        assert len(outs) > 60
        for out in outs:
            assert out.curve.scaled == PolyCurve(out.curve.vertices).scaled

    @pytest.mark.parametrize("make, host", [
        (lambda: parse_diagram(LADDER_K8.read_text(encoding="utf-8")), 7),
        (vertical_edge_unknot, 9),  # bent first
    ], ids=["ladder-k8", "vertical"])
    def test_splice_hashes_no_fraction(self, monkeypatch, make, host):
        # the splice matches crossings by the ints of their points; a
        # Fraction hashed inside it raises
        d = make()
        want = stabilize(d, host, 3)
        inside = []

        def hash_outside(x):
            if inside:
                raise AssertionError("a Fraction was hashed inside the splice")
            return fraction_hash(x)

        def watched(*args):
            inside.append(True)
            try:
                return splice(*args)
            finally:
                inside.pop()

        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", hash_outside)
        monkeypatch.setattr(ms, "splice", watched)
        assert stabilize(d, host, 3) == want

    @pytest.mark.parametrize("text, host", [
        (LADDER_K8.read_text(encoding="utf-8"), 7),
        (serialize_diagram(vertical_edge_unknot()), 9),  # bent first
    ])
    def test_parsed_host_stabilizes_without_the_vertex_view(self, text, host):
        d = parse_diagram(text)
        out = stabilize(d, host, 3)
        assert parse_diagram(serialize_diagram(out)) == out
        assert "vertices" not in vars(d.curve) and "vertices" not in vars(out.curve)

    def test_outputs_are_pinned(self):
        # SHA-256 of 960 stabilizations as the Fraction clearance placed
        # them: the int clearance must choose the same scales
        diagrams = [trefoil_right(), trefoil_left(), u_minus(), minus_unknot()]
        diagrams += [random_valid_diagram(s, c) for s in range(12) for c in Coorientation]
        h = hashlib.sha256()
        for d in diagrams:
            for host in range(1, d.curve.n + 1):
                for count in (1, 2, 3, 5):
                    h.update(serialize_diagram(stabilize(d, host, count)).encode())
        assert h.hexdigest() == "ac7223a8dc585b6fa72ba1488e82520f15d957a2b814d4884686959c8bd4d642"

    def test_count_zero_is_identity(self):
        d = u_minus()
        assert serialize_diagram(stabilize(d, 1, 0)) == serialize_diagram(d)

    def test_minus_diagram(self):
        d = random_valid_diagram(3, Coorientation.MINUS)
        out = stabilize(d, 1, 1)
        assert validate(out).is_valid
        assert self_linking(out) == self_linking(d) - 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDiagramError):
            stabilize(u_minus_forbidden(), 1, 1)
        with pytest.raises(ValueError):
            stabilize(u_minus(), 0, 1)
        with pytest.raises(ValueError):
            stabilize(u_minus(), 11, 1)
        with pytest.raises(ValueError):
            stabilize(u_minus(), 1, -1)


# The guards of stabilize that no valid diagram reaches, each forced by
# patching the step it guards: (diagram, host, patched name, stand-in,
# error type, message)
STABILIZE_GUARDS = [
    (lambda: spiked_vertical_unknot(Fraction(-1, 20)), 13, "splice", lambda *a: None,
     HostTooShortError, "could not bend vertical edge 13"),
    (trefoil_right, 1, "halvings", lambda *a: 256,
     HostTooShortError, "no safe detour scale for edge 1"),
    (trefoil_right, 1, "splice", lambda *a: None,
     TransknotError, "detours on edge 1 crossed unexpectedly"),
]


@pytest.mark.parametrize("make, host, name, stand_in, error, message", STABILIZE_GUARDS)
def test_stabilize_guards_raise_typed_errors(monkeypatch, tmp_path, make, host, name, stand_in,
                                             error, message):
    d = make()
    src, out = tmp_path / "in.td", tmp_path / "out.td"
    src.write_text(serialize_diagram(d), encoding="utf-8")
    monkeypatch.setattr(ms, name, stand_in)
    with pytest.raises(TransknotError) as raised:
        stabilize(d, host, 1)
    assert (raised.type, str(raised.value)) == (error, message)
    if d.curve.direction(host).x == 0:
        with pytest.raises(HostTooShortError, match=f"^{message}$"):
            _bend_vertical(d, host)
    argv = ["stabilize", str(src), "--edge", str(host), "--count", "1", "-o", str(out)]
    assert tuple(dispatch(argv)) == (1, [f"error: {message}"])
    assert not out.exists()


@pytest.mark.xfail(raises=HostTooShortError, strict=True,
                   reason="repeated stabilization deepens the clearance without bound: "
                          "call 17 finds no safe detour scale for edge 78")
def test_sixty_chained_stabilizations_succeed():
    # coordinate growth must stay bounded under repeated moves; bounded
    # coordinates (snap rounding) turn this into a pass
    d, rng = trefoil_right(), random.Random(16)
    for _ in range(60):
        d = stabilize(d, rng.randint(1, d.curve.n), 1)
    assert validate(d).is_valid


class TestMakeSingular:
    def test_braid_crossings_become_doubles(self):
        s = make_singular(trefoil_right(), [0, 1])
        assert s.doubles == (0, 1)
        doubles = [s.diagram.crossings[i] for i in s.doubles]
        assert [(x.lo, x.hi) for x in doubles] == [(1, 9), (2, 10)]

    def test_forced_crossing_is_inadmissible(self):
        with pytest.raises(InadmissibleDoublePointError, match="forced over bit") as raised:
            make_singular(u_minus(), [0])
        assert raised.value.site == 0
        # the lowest forced index is refused, and its message names its point
        with pytest.raises(InadmissibleDoublePointError) as raised:
            make_singular(trefoil_right(), [6, 0, 4])
        assert (raised.value.site, str(raised.value)) == (
            4, "crossing 4 between edges 6 and 8 at (-10/13,-5/2) has a forced over bit")

    def test_rejects_invalid_diagram(self):
        with pytest.raises(InvalidDiagramError):
            make_singular(u_minus_forbidden(), [0])

    def test_rejects_bad_site_index(self):
        with pytest.raises(ValueError):
            make_singular(trefoil_right(), [7])
        with pytest.raises(ValueError):
            make_singular(trefoil_right(), [-1])


class TestResolve:
    def test_positive_resolution_restores_trefoil(self):
        s = make_singular(trefoil_right(), [0])
        back = resolve(s, {0: 1})
        assert back == trefoil_right()

    def test_single_site_sign_difference(self):
        s = make_singular(trefoil_right(), [0])
        pos = resolve(s, {0: 1})
        neg = resolve(s, {0: -1})
        assert writhe(pos) - writhe(neg) == 2

    def test_all_resolutions_validate(self):
        s = make_singular(trefoil_right(), [0, 1, 2])
        for bits in range(8):
            signs = {i: 1 if bits >> j & 1 else -1 for j, i in enumerate(s.doubles)}
            assert validate(resolve(s, signs)).is_valid

    @pytest.mark.parametrize("choice", ["+", 0, 2, None, True, 1.0])
    def test_choice_must_be_a_resolution(self, choice):
        # a resolution is the int 1 or -1: True and 1.0 equal 1 but are
        # refused, as is any other value
        s = make_singular(trefoil_right(), [0, 1])
        message = f"sign {choice!r} for site 1 is not 1 or -1"
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve(s, {0: 1, 1: choice})

    def test_choice_set_must_match(self):
        s = make_singular(trefoil_right(), [0, 1])
        with pytest.raises(ValueError):
            resolve(s, {0: 1})
        with pytest.raises(ValueError):
            resolve(s, {0: 1, 1: 1, 2: 1})

    @pytest.mark.parametrize("site", [-1, 7], ids=["negative", "past the end"])
    def test_hand_built_double_must_be_in_range(self, site):
        # the trefoil has 7 crossings: -1 once resolved the last, and 7
        # raised IndexError
        s = SingularDiagram(trefoil_right(), (site,))
        with pytest.raises(ValueError, match=f"crossing index {site} out of range"):
            resolve(s, {site: 1})

    def test_hand_built_double_must_not_be_forced(self):
        # make_singular refuses crossing 4, and resolve once returned an
        # invalid diagram carrying the host's valid report
        s = SingularDiagram(trefoil_right(), (4,))
        with pytest.raises(InadmissibleDoublePointError, match="crossing 4 ") as err:
            resolve(s, {4: 1})
        assert err.value.site == 4

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_resolve_builds_what_the_point_form_built(self, seed, order):
        # the public constructor on each double's point is the reference
        # for the triples resolve takes from the pair pass
        for s in singular_family(seed, order + 1, 3):
            doubles = s.doubles
            for signs in itertools.product((1, -1), repeat=len(doubles)):
                chosen = dict(zip(doubles, signs))
                d = s.diagram
                by_point = TransverseDiagram(d.curve, d.coorientation, [
                    Crossing(c.lo, c.hi, c.point, over_for_sign(d.curve, c.lo, c.hi, chosen[i]))
                    if i in chosen else c for i, c in enumerate(d.crossings)])
                got = resolve(s, chosen)
                assert got == by_point
                assert [c.xzd for c in got.crossings] == [c.xzd for c in by_point.crossings]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_resolve_hands_on_the_host_validity(self, seed, order):
        # a resolution changes bits only where make_singular found none
        # forced, so the host's report, which resolve caches on it, is
        # the one the check computes
        for s in singular_family(seed, order + 1, 3):
            for signs in itertools.product((1, -1), repeat=len(s.doubles)):
                r = resolve(s, dict(zip(s.doubles, signs)))
                assert r.validity is s.diagram.validity
                assert r.validity == check_validity(r)


@pytest.mark.parametrize("inv", [WRITHE_INVARIANT, V2_INVARIANT], ids=["writhe", "v2"])
@pytest.mark.parametrize("seed", range(6))
def test_defect_weights_each_resolution_by_its_signs(inv, seed):
    # one double point: v(K+) - v(K-); two: each sign flip flips the term
    for s in singular_family(seed, 1, 3):
        [i] = s.doubles
        want = inv.fn(resolve(s, {i: 1})) - inv.fn(resolve(s, {i: -1}))
        assert vassiliev_defect(inv, s).defect == want
    for s in singular_family(seed, 2, 3):
        i, j = s.doubles
        v = {(a, b): inv.fn(resolve(s, {i: a, j: b})) for a in (1, -1) for b in (1, -1)}
        want = v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]
        assert vassiliev_defect(inv, s).defect == want


class TestVassilievDefect:
    def test_writhe_fails_order_zero(self):
        s = make_singular(trefoil_right(), [0])
        r = vassiliev_defect(WRITHE_INVARIANT, s)
        assert r.invariant_name == "writhe"
        assert r.order_tested == 0
        assert r.defect == 2
        assert r.resolutions_evaluated == 2

    def test_writhe_passes_order_one(self):
        s = make_singular(trefoil_right(), [0, 1])
        assert vassiliev_defect(WRITHE_INVARIANT, s).defect == 0

    def test_v2_fails_order_one_on_braid_witness(self):
        s = make_singular(trefoil_right(), [0, 1])
        r = vassiliev_defect(V2_INVARIANT, s)
        assert r.defect == 1
        assert r.resolutions_evaluated == 4

    def test_v2_passes_order_two(self):
        s = make_singular(trefoil_right(), [0, 1, 2])
        r = vassiliev_defect(V2_INVARIANT, s)
        assert r.defect == 0
        assert r.resolutions_evaluated == 8

    def test_needs_at_least_one_double(self):
        s = make_singular(trefoil_right(), [])
        with pytest.raises(ValueError):
            vassiliev_defect(WRITHE_INVARIANT, s)

    def test_v2_defect_at_one_double_point_is_the_smoothing_linking_number(self):
        # Conway's skein relation: v2(K+) - v2(K-) = lk(K0), for the
        # two-component link K0 of the oriented smoothing
        seen = set()
        for s in skein_members(1, range(100)):
            [site] = s.doubles
            lk = smoothing_linking_number(s, site)
            assert vassiliev_defect(V2_INVARIANT, s).defect == lk
            seen.add(lk)
        assert {-1, 0, 1} <= seen

    def test_writhe_and_sl_pullback_defects_at_one_double_point_are_two(self):
        # resolving one double point positively and negatively flips one
        # crossing sign, so the writhe and the framing it pulls back
        # change by 2
        sl_pullback = pullback_framed_invariant(FRAMING_PROJECTION)
        for seed in range(100):
            for s in singular_family(seed, 1, 3):
                assert vassiliev_defect(WRITHE_INVARIANT, s).defect == 2
                assert vassiliev_defect(sl_pullback, s).defect == 2

    def test_v2_defect_at_two_double_points_is_the_chord_symbol(self):
        # the symbol of v2: 1 on two interleaved chords, else 0
        seen = set()
        for s in skein_members(2, range(60)):
            ends = chord_ends(resolve_all(s, 1))
            one, other = (s.diagram.crossings[i] for i in s.doubles)
            symbol = int(interleaved(ends[one.lo, one.hi], ends[other.lo, other.hi]))
            assert vassiliev_defect(V2_INVARIANT, s).defect == symbol
            seen.add(symbol)
        assert seen == {0, 1}


def skein_members(doubles: int, seeds):
    """The members of ``singular_family(seed, doubles, 3)`` for each seed,
    then every admissible set of ``doubles`` crossings of the fixtures."""
    for seed in seeds:
        yield from singular_family(seed, doubles, 3)
    for make in (trefoil_right, trefoil_left, u_minus, minus_unknot):
        d = make()
        free = [i for i, c in enumerate(d.crossings)
                if forced_over(d.curve, d.coorientation, c.lo, c.hi) is None]
        for sites in itertools.combinations(free, doubles):
            yield make_singular(d, sites)


def resolve_all(s, sign: int) -> TransverseDiagram:
    return resolve(s, dict.fromkeys(s.doubles, sign))


def chord_ends(d: TransverseDiagram) -> dict:
    """(first, second) passage of each crossing in the walk from vertex
    1, keyed by (lo, hi); read from ``crossings_along`` alone."""
    ends: dict = {}
    walk = [d.entries[k][:2] for along in d.crossings_along for k in along]
    for pos, pair in enumerate(walk):
        ends.setdefault(pair, []).append(pos)
    return {pair: tuple(at) for pair, at in ends.items()}


def interleaved(a, b) -> bool:
    """Whether chord b has exactly one end between the ends of chord a."""
    (a1, a2), (b1, b2) = a, b
    return (a1 < b1 < a2) != (a1 < b2 < a2)


def smoothing_linking_number(s, site: int) -> int:
    """lk(K0) of the oriented smoothing at double point ``site``: half
    the signed count of the chords that interleave its chord, since the
    smoothing splits the walk between the chord's two ends.  The other
    crossings keep their signs whatever the double point resolves to."""
    d = resolve_all(s, 1)
    ends = chord_ends(d)
    double = s.diagram.crossings[site]
    chord = ends[double.lo, double.hi]
    twice = sum(sg for c, sg in zip(d.crossings, d.signs)
                if interleaved(chord, ends[c.lo, c.hi]))
    assert twice % 2 == 0
    return twice // 2


class TestOrderCheck:
    def test_writhe_order_one_holds(self):
        family = singular_family(11, 2, 4)
        result = is_order_at_most(WRITHE_INVARIANT, 1, family)
        assert result.holds
        assert all(r.defect == 0 for r in result.reports)

    def test_writhe_order_zero_fails_with_defect_two(self):
        family = singular_family(11, 1, 4)
        result = is_order_at_most(WRITHE_INVARIANT, 0, family)
        assert not result.holds
        assert [r.defect for r in result.reports] == [2, 2, 2, 2]

    def test_v2_order_two_holds(self):
        family = singular_family(5, 3, 3)
        result = is_order_at_most(V2_INVARIANT, 2, family)
        assert result.holds

    def test_v2_order_one_fails(self):
        family = singular_family(5, 2, 3)
        result = is_order_at_most(V2_INVARIANT, 1, family)
        assert not result.holds
        # the braid witness leads the family and carries defect 1
        assert result.reports[0].defect == 1

    def test_family_arity_is_enforced(self):
        family = singular_family(11, 2, 2)
        with pytest.raises(FamilyArityError, match="order 2 needs 3 double points"):
            is_order_at_most(WRITHE_INVARIANT, 2, family)


def test_pullback_framed_invariant():
    handle = pullback_framed_invariant(FRAMING_PROJECTION)
    assert handle.name == "sl-pullback"
    assert handle.claimed_order == 1
    assert handle.fn(u_minus()) == -1
    assert handle.fn(trefoil_right()) == 1
    family = singular_family(11, 2, 3)
    assert is_order_at_most(handle, 1, family).holds


class TestGenerators:
    def test_random_diagram_is_deterministic(self):
        a = serialize_diagram(random_valid_diagram(42))
        b = serialize_diagram(random_valid_diagram(42))
        assert a == b
        assert a != serialize_diagram(random_valid_diagram(43))

    def test_streams_are_pinned(self):
        # SHA-256 of seeds 0-49 in both coorientations as the Fraction
        # version of the generator drew them; the int rejection loop
        # must draw the same diagrams
        h = hashlib.sha256()
        for seed in range(50):
            for coor in (Coorientation.PLUS, Coorientation.MINUS):
                h.update(serialize_diagram(random_valid_diagram(seed, coor)).encode())
        assert h.hexdigest() == "7f3df91cc3f7d54e8468e31447ee2145f97b0c7738f6580669eefbae6b67b851"
        hosts = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "hosts"
        for seed, coor, name in [(1, Coorientation.PLUS, "random-plus-1.td"),
                                 (2, Coorientation.MINUS, "random-minus-2.td")]:
            text = (hosts / name).read_text(encoding="utf-8")
            assert serialize_diagram(random_valid_diagram(seed, coor)) == text

    def test_coorientation_changes_the_stream(self):
        a = random_valid_diagram(7, Coorientation.PLUS)
        b = random_valid_diagram(7, Coorientation.MINUS)
        assert b.coorientation is Coorientation.MINUS
        assert serialize_diagram(a) != serialize_diagram(b)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_diagrams_validate(self, seed):
        assert validate(random_valid_diagram(seed)).is_valid
        assert validate(random_valid_diagram(seed, Coorientation.MINUS)).is_valid

    def test_family_shape(self):
        family = singular_family(2, 2, 3)
        assert len(family) == 3
        for s in family:
            assert len(s.doubles) == 2
        # deterministic, and led by the trefoil braid witness
        again = singular_family(2, 2, 3)
        assert [m.diagram.curve for m in again] == [m.diagram.curve for m in family]
        assert family[0].diagram.curve == trefoil_right().curve

    @pytest.mark.parametrize("doubles", range(1, 10))
    def test_family_draws_once_per_member(self, monkeypatch, doubles):
        draws = count_calls(monkeypatch, "random_valid_diagram")
        for seed in range(10):
            del draws[:]
            family = singular_family(seed, doubles, 3)
            assert [len(s.doubles) for s in family] == [doubles] * 3
            assert len(draws) == 3 - (1 if doubles <= 3 else 0)

    def test_family_short_top_up_raises(self, monkeypatch):
        stabilize_all = ms.stabilize
        monkeypatch.setattr(ms, "stabilize",
                            lambda d, host, count: stabilize_all(d, host, count - 1))
        with pytest.raises(TransknotError, match="admissible sites, short of 9"):
            singular_family(0, 9, 1)

    def test_search_failure_is_a_domain_error(self, monkeypatch):
        # a corner walk that reports a turn at every corner rejects every
        # draw and exhausts the search
        monkeypatch.setattr(ms, "corner_turns", lambda dirs, r: (1 for _ in dirs))
        with pytest.raises(TransknotError) as raised:
            random_valid_diagram("3-member-0")
        assert (raised.type, str(raised.value)) == (
            TransknotError, "random diagram search failed for seed '3-member-0'")
        argv = ["order-check", "--invariant", "writhe", "--order", "1", "--seed", "3",
                "--samples", "2"]
        assert tuple(dispatch(argv)) == (
            1, ["error: random diagram search failed for seed '3-member-0'"])

    def test_family_rejects_zero_doubles(self):
        with pytest.raises(ValueError):
            singular_family(1, 0, 1)
