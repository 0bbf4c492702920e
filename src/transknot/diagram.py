"""Diagram data model, genericity checking, crossing detection, text format.

A diagram is a closed polygonal curve in the (x, z) plane together with
a coorientation sign and an over/under bit per crossing.  The strand
drawn on top is the one with the smaller y-coordinate in space, so
``over`` is a drawing datum; no y-values are ever stored.  A diagram
keeps each crossing as the int entry (lo, hi, xzd) that the curve's
pair pass found and its over bit; ``Crossing`` values, with Fraction
points, are a view built only when read.
"""

from __future__ import annotations

import enum
import math
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key, total_ordering
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .errors import CrossingMismatchError, NongenericCurveError, ParseError, TransknotError
from .geometry import Point, Vec, box, box_meeting_pairs, box_overlapping_pairs, vec


if TYPE_CHECKING:
    from .transversality import ValidityReport


class Coorientation(enum.Enum):
    PLUS = "+"
    MINUS = "-"


class ViolationKind(enum.Enum):
    """Defect kinds; declaration order is the canonical report order.

    Member names double as the tokens printed in diagnostics.
    """

    ZeroEdge = enum.auto()
    ReversalCorner = enum.auto()
    EndpointContact = enum.auto()
    CollinearOverlap = enum.auto()
    TriplePoint = enum.auto()
    VertexOnEdge = enum.auto()
    UpwardEdge = enum.auto()
    UpwardCorner = enum.auto()
    ForbiddenCrossing = enum.auto()
    CrossingMismatch = enum.auto()


class Frozen:
    """Equality, hash and repr over the fields named in ``_fields``, and
    no assignment: what a frozen dataclass gives, without the import
    cost of ``dataclasses``.  Instances are equal when their classes and
    field tuples are, and hash as the field tuple.  Each ``__init__``
    sets its fields with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(NamedTuple):
    """A single defect, located either at edges or at a point."""

    kind: ViolationKind
    edges: tuple[int, ...] = ()
    point: Optional[Point] = None

    def location_str(self) -> str:
        if self.edges:
            return ",".join(f"e{i}" for i in self.edges)
        if self.point is None:
            raise TransknotError(f"{self.kind.name} violation has no location")
        return f"({self.point.x},{self.point.z})"

    def sort_key(self):
        pt = (self.point.x, self.point.z) if self.point is not None else ()
        return (self.kind.value, self.edges, pt)

    def __str__(self) -> str:
        return f"{self.kind.name} {self.location_str()}"


def sort_violations(violations) -> list[Violation]:
    return sorted(violations, key=Violation.sort_key)


class PolyCurve(Frozen):
    """Closed oriented polygonal curve; edge i runs vertex i -> i+1.

    Vertices and edges are indexed 1-based and cyclically, so edge n
    closes the loop back to vertex 1.

    The curve is its ints: ``scaled`` is (L, the vertices times L), with
    L the lcm of the reduced denominators of the vertex coordinates, so
    that the scaled vertices are plain (x, z) int tuples.  The pair is
    canonical, so equality compares it.  The all-pairs loops decide their
    predicates on these ints, which are exact and never normalise a
    fraction; a distance leaves them as a Fraction again, and a crossing
    point stays the int triple the pair pass found (``pair_facts``),
    which a diagram keeps as its ``entries``, until it is read as a
    Fraction point (``detected_crossings``, the diagram's ``crossings``
    view).  ``vertices``, the
    Fraction points, is a view built on first read; as the field tuple it
    is what the repr reads; the hash reads ``scaled``, which equality
    compares, and so builds no view.  ``vertex`` reads one vertex from
    its ints and builds no view.  The constructor takes the points,
    converts them once and keeps them as that view.  The parser and the
    moves hand their ints to ``_from_scaled``, the moves through
    ``splice``, and build no vertex Fraction.

    ``vertex_text`` is the curve's vertex lines as ``serialize_diagram``
    writes them, formatted from the ints on first write.  A curve read
    from canonical text keeps the lines it was read from instead, so
    writing it back formats nothing; ``resolve`` and ``with_over`` keep
    their host's curve, and with it that text.
    """

    _fields = ("vertices",)
    scaled: tuple[int, tuple[tuple[int, int], ...]]

    def __init__(self, vertices: tuple[Point, ...]):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise ValueError("a closed curve needs at least 3 vertices")
        scale = math.lcm(*{c.denominator for p in vertices for c in p})
        object.__setattr__(self, "scaled", (scale, tuple(
            (x.numerator * (scale // x.denominator), z.numerator * (scale // z.denominator))
            for x, z in vertices)))
        vars(self)["vertices"] = vertices  # the cache of the view below

    @classmethod
    def _from_scaled(cls, scale: int, pts: tuple[tuple[int, int], ...]) -> PolyCurve:
        """The curve whose ``scaled`` is (scale, pts): at least 3 points,
        and scale the lcm of the reduced denominators of pts / scale."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "scaled", (scale, pts))
        return curve

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scaled == other.scaled

    def __hash__(self):
        return hash(self.scaled)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as Fraction points, built from ``scaled`` once."""
        scale, pts = self.scaled
        return tuple(Point(Fraction(x, scale), Fraction(z, scale)) for x, z in pts)

    @cached_property
    def vertex_text(self) -> str:
        """One line "x z\\n" per vertex, each coordinate as
        ``str(Fraction)`` writes it; formatted once, on first read."""
        scale, pts = self.scaled
        return "".join(f"{_rational_text(x, scale)} {_rational_text(z, scale)}\n" for x, z in pts)

    @property
    def n(self) -> int:
        return len(self.scaled[1])

    def vertex(self, i: int) -> Point:
        """Vertex i as a Fraction point, read from its two ints."""
        x, z = self.scaled[1][(i - 1) % self.n]
        return Point(Fraction(x, self.scaled[0]), Fraction(z, self.scaled[0]))

    def edge(self, i: int) -> tuple[Point, Point]:
        return self.vertex(i), self.vertex(i + 1)

    def direction(self, i: int) -> Vec:
        a, b = self.edge(i)
        return vec(a, b)

    def edges(self) -> Iterator[tuple[int, Point, Point]]:
        """(i, start, end) for every edge, from the ``vertices`` view."""
        vs = self.vertices
        for i in range(1, self.n + 1):
            yield i, vs[i - 1], vs[i % self.n]

    @cached_property
    def int_directions(self) -> tuple[tuple[int, int], ...]:
        """Edge directions as plain (dx, dz) int pairs, edge i at index
        i - 1: the differences of the ``scaled`` vertices, read by index
        by the direction predicates.  Each is L times the true
        direction with L > 0, so every cross or dot sign and every
        parallel test on them is the true one.  The direction predicates
        (conditions 1 and 2, the Whitney index, crossing signs, the
        along-edge order) decide on these.  Computed once.
        """
        _, pts = self.scaled
        return tuple((bx - ax, bz - az) for (ax, az), (bx, bz) in edge_ends(pts))

    @cached_property
    def pair_facts(self) -> tuple[tuple, tuple[Violation, ...]]:
        """(crossings, ``genericity_violations``): what the curve's
        one pair pass, ``_crossing_scan``, finds.  Computed once,
        whichever is read first; the parser runs the pass itself, bounded
        by its pair limit, and keeps the result here.

        crossings holds (lo, hi, (X, Z, D)) for every interior
        transversal intersection of non-adjacent edges, sorted by (lo,
        hi): the point (X/D, Z/D) in plane units as its canonical int
        triple, D > 0 and gcd(X, Z, D) = 1, so two points are equal
        exactly when their triples are.  The pass keeps nothing else of
        the pairs it decides on."""
        return _crossing_scan(self)

    @cached_property
    def detected_crossings(self) -> tuple[tuple[int, int, Point], ...]:
        """(lo, hi, point) for every interior transversal intersection of
        non-adjacent edges, sorted by (lo, hi): the crossings of
        ``pair_facts`` with their Fraction points, built on first read."""
        return tuple((lo, hi, _point(xzd)) for lo, hi, xzd in self.pair_facts[0])

    @property
    def genericity_violations(self) -> tuple[Violation, ...]:
        """All positional defects of the curve, in canonical order.

        Empty means: no zero-length edges, no exact reversals, no
        duplicate vertices, no vertex interior to a non-incident edge,
        no collinear overlaps, and non-adjacent edges meeting in at most
        one interior point with all such points distinct; see
        ``pair_facts``.
        """
        return self.pair_facts[1]

    @cached_property
    def edge_boxes(self) -> tuple[tuple[int, int, int, int], ...]:
        """The closed box (xlo, xhi, zlo, zhi) of every ``scaled`` edge,
        edge i at index i - 1: what ``least_dist2`` pairs points and
        edges by.  Computed once."""
        _, pts = self.scaled
        return tuple(box(a, b) for a, b in edge_ends(pts))

    def corner_turns(self, r) -> tuple[int, ...]:
        """``transversality.corner_turns`` of the int directions at the
        direction r, as a tuple walked once per direction: under Plus,
        condition 1 and the Whitney index read one walk at (0, 1)."""
        turns = self._turns
        if r not in turns:
            from .transversality import corner_turns  # it imports this module

            turns[r] = tuple(corner_turns(self.int_directions, r))
        return turns[r]

    @cached_property
    def _turns(self) -> dict:
        """The cache of ``corner_turns``, by direction."""
        return {}


def edge_ends(pts) -> list[tuple[tuple, tuple]]:
    """(start, end) of every edge of the closed polygon ``pts``."""
    return list(zip(pts, pts[1:] + pts[:1]))


def _point(xzd) -> Point:
    """The Fraction point of the int triple (X, Z, D): (X/D, Z/D)."""
    x, z, d = xzd
    return Point(Fraction(x, d), Fraction(z, d))


def _crossing_scan(curve: PolyCurve, limit: Optional[int] = None):
    """The curve's one pair pass, behind ``PolyCurve.pair_facts``: its
    crossings, each kept as the canonical int triple of its point, and
    its genericity violations, found on the scaled vertices; it keeps no
    other pair of edges that meet.  With a ``limit``, the pass counts the
    pairs of edges whose boxes meet, adjacent ones included, and returns
    None at the pair after the limit.

    Zero edges are read off the int directions.  Every other fact is
    decided at a pair of edges i < j whose closed boxes meet, edge i
    running a -> a + e and edge j c -> c + f, by the orientation
    determinants den = e×f, s = w×f and t = w×e with w = c - a (see
    ``geometry.pair_determinants``, which the tests hold this pass to):

    - The boxes are swept once: sorted by xlo, each box meets the later
      ones whose xlo is at most its xhi, found by bisection, and is
      paired with those whose z-range meets its own.
    - A vertex lies in the closed box of the edge it starts, and a
      vertex inside an edge lies in that edge's box, so every vertex
      fact is found at a pair of edges the sweep yields.
    - Coincident vertices s < t start edges s and t, whose boxes meet
      at the common point, so the sweep yields (s, t) exactly once: each
      EndpointContact is reported once, at the lower vertex, for every
      pair of coincident vertices that are not consecutive.
    - The n adjacent pairs, the corners e -> f, are walked once in a
      linear loop, and the sweep skips them.  Two edges that turn,
      e×f != 0, share only their common vertex, and two parallel ones
      that go on, e·f >= 0, only that vertex too.  So a corner has facts
      only where it reverses exactly, e×f = 0 with e·f < 0: a
      ReversalCorner, a CollinearOverlap of its two edges, and, where
      the incoming edge is the shorter, its start inside the outgoing
      edge.  Where the outgoing edge is the shorter, its end starts the
      next edge, and that vertex is found at the pair of the next edge
      and the incoming one.
    - With den made positive, two edges cross exactly when 0 < s < den
      and 0 < t < den, at the point a + (s/den)e, which is
      (a*den + s*e) / (den*L) in plane units for the scale L, kept with
      the three ints divided by their gcd.  Two non-parallel edges that
      meet in any other way meet at an end of one of them: a vertex
      fact, found at a pair with the edge that vertex starts.
    - A zero edge overlaps nothing: with e or f zero the overlap test
      never holds.  With s and t both non-zero there is no contact and no
      shared line, and the crossing test is all that is left.
    - Three crossings at one point share one triple, which is a
      TriplePoint.
    """
    n = curve.n
    scale, pts = curve.scaled
    dirs = curve.int_directions
    out = [Violation(ViolationKind.ZeroEdge, edges=(i + 1,))
           for i, t in enumerate(dirs) if t == (0, 0)]
    on_edge = set()
    for k, (fx, fz) in enumerate(dirs):
        ex, ez = dirs[k - 1]
        if ex * fz == ez * fx and ex * fx + ez * fz < 0:
            i = k - 1 if k else n - 1  # the incoming edge
            out += [Violation(ViolationKind.ReversalCorner, edges=(i + 1, k + 1)),
                    Violation(ViolationKind.CollinearOverlap, edges=(min(i, k) + 1, max(i, k) + 1))]
            if ex * ex + ez * ez < fx * fx + fz * fz:
                on_edge.add(i)

    items = []  # the edge boxes as (xlo, zlo, zhi, xhi, index), sorted
    for i, ((ax, az), (ex, ez)) in enumerate(zip(pts, dirs)):
        xlo, xhi = (ax, ax + ex) if ex >= 0 else (ax + ex, ax)
        zlo, zhi = (az, az + ez) if ez >= 0 else (az + ez, az)
        items.append((xlo, zlo, zhi, xhi, i))
    items.sort()
    xlos = [item[0] for item in items]
    stop = -1 if limit is None else limit + 1
    count = 0
    found = []
    for pos, (_, zlo, zhi, xhi, r) in enumerate(items):
        for _, lo, hi, _, q in items[pos + 1:bisect_right(xlos, xhi, pos + 1)]:
            if lo > zhi or hi < zlo:
                continue
            count += 1
            if count == stop:
                return None
            i, j = (r, q) if r < q else (q, r)
            if j - i == 1 or j - i == n - 1:
                continue  # a corner, walked above
            (ax, az), (ex, ez), (cx, cz), (fx, fz) = pts[i], dirs[i], pts[j], dirs[j]
            wx, wz = cx - ax, cz - az
            den, s, t = ex * fz - ez * fx, wx * fz - wz * fx, wx * ez - wz * ex
            if den < 0:
                den, s, t = -den, -s, -t
            if 0 < s < den and 0 < t < den:
                x, z, d = ax * den + s * ex, az * den + s * ez, den * scale
                g = math.gcd(x, z, d)
                found.append((i + 1, j + 1, (x // g, z // g, d // g)))
                continue
            if s and t:
                continue
            if not (wx or wz):
                out.append(Violation(ViolationKind.EndpointContact, point=curve.vertex(i + 1)))
            along, length2 = wx * ex + wz * ez, ex * ex + ez * ez
            if not t and 0 < along < length2:  # never at its own ends
                on_edge.add(j)
            if not s and 0 < -(wx * fx + wz * fz) < fx * fx + fz * fz:
                on_edge.add(i)
            if not den and not t:
                lo, hi = sorted((along, along + fx * ex + fz * ez))
                if min(hi, length2) > max(lo, 0):  # more than one common point
                    out.append(Violation(ViolationKind.CollinearOverlap, edges=(i + 1, j + 1)))
    out += [Violation(ViolationKind.VertexOnEdge, point=curve.vertex(k + 1)) for k in on_edge]

    triples = [xzd for _, _, xzd in found]
    if len(set(triples)) < len(triples):
        out += [Violation(ViolationKind.TriplePoint, point=_point(xzd))
                for xzd, times in Counter(triples).items() if times > 1]
    found.sort()
    return tuple(found), tuple(sort_violations(out))


@total_ordering
class Crossing(Frozen):
    """A transversal double point of the projection, as a plain value.

    ``lo < hi`` index the two edges; ``over`` names the strand drawn on
    top (the one with the smaller y-coordinate in space).  Crossings
    sort by their fields (lo, hi, point, over).  A diagram keeps its
    crossings as int entries and over bits and builds these only as
    its ``crossings`` view; ``xzd`` reads the point back as its
    canonical int triple.
    """

    __slots__ = _fields = ("lo", "hi", "point", "over")
    lo: int
    hi: int
    point: Point
    over: str  # "lo" or "hi"

    def __init__(self, lo: int, hi: int, point: Point, over: str):
        if not lo < hi:
            raise ValueError("crossing edges must satisfy lo < hi")
        if over not in ("lo", "hi"):
            raise ValueError("over must be 'lo' or 'hi'")
        for name, value in zip(self._fields, (lo, hi, point, over)):
            object.__setattr__(self, name, value)

    @property
    def xzd(self) -> tuple[int, int, int]:
        """The point as its canonical int triple (X, Z, D), the point
        (X/D, Z/D) with D > 0 and gcd(X, Z, D) = 1: over the lcm of the
        two reduced denominators."""
        x, z = self.point
        d = math.lcm(x.denominator, z.denominator)
        return x.numerator * (d // x.denominator), z.numerator * (d // z.denominator), d

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() < other._astuple()

    @property
    def over_edge(self) -> int:
        return self.lo if self.over == "lo" else self.hi

    @property
    def under_edge(self) -> int:
        return self.hi if self.over == "lo" else self.lo


class TransverseDiagram(Frozen):
    """A curve, its coorientation, and its crossings, kept sorted.

    The crossings are held in one form: ``entries``, a tuple of (lo, hi,
    xzd) sorted by (lo, hi), xzd the canonical int triple of the point as
    ``PolyCurve.pair_facts`` holds it, and ``overs``, the over bit "lo"
    or "hi" of each entry in the same order.  Every package reader reads
    these.  ``crossings``, the ``Crossing`` values, is a view built on
    first read; as a field it is what equality, the hash and the repr
    read.  The constructor sorts the crossings it is given, derives both
    tuples once and keeps the crossings as that view; ``_attach_over``
    and ``with_over`` hand their tuples to ``_from_entries`` and build
    no crossing.  All five are kept in the instance's ``__dict__``.
    """

    _fields = ("curve", "coorientation", "crossings")
    curve: PolyCurve
    coorientation: Coorientation
    entries: tuple[tuple[int, int, tuple[int, int, int]], ...]
    overs: tuple[str, ...]

    def __init__(self, curve: PolyCurve, coorientation: Coorientation, crossings):
        crossings = tuple(sorted(crossings))
        vars(self).update(curve=curve, coorientation=coorientation, crossings=crossings,
                          entries=tuple((c.lo, c.hi, c.xzd) for c in crossings),
                          overs=tuple(c.over for c in crossings))

    @classmethod
    def _from_entries(cls, curve: PolyCurve, coorientation: Coorientation, entries,
                      overs: tuple[str, ...]) -> TransverseDiagram:
        """The diagram whose crossings are ``entries`` with the bits
        ``overs``: entries sorted by (lo, hi), each with lo < hi, and
        each bit "lo" or "hi" (ValueError otherwise)."""
        if not {"lo", "hi"}.issuperset(overs):
            raise ValueError("over must be 'lo' or 'hi'")
        d = object.__new__(cls)
        vars(d).update(curve=curve, coorientation=coorientation, entries=entries, overs=overs)
        return d

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        """The ``Crossing`` of each entry, with its Fraction point; built
        on first read."""
        return tuple(Crossing(lo, hi, _point(xzd), bit)
                     for (lo, hi, xzd), bit in zip(self.entries, self.overs))

    @cached_property
    def validity(self) -> ValidityReport:
        """This diagram's ``transversality.ValidityReport``, computed once
        (see ``transversality.check_validity``)."""
        from .transversality import check_validity  # it imports this module

        return check_validity(self)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """The sign of each entry with its over bit, in their order, by
        ``invariants.sign_for_over``; computed once.  The writhe, v2 and
        the push-off oracle read them here."""
        from .invariants import sign_for_over  # it imports this module

        return tuple(sign_for_over(self.curve, lo, hi, bit)
                     for (lo, hi, _), bit in zip(self.entries, self.overs))

    @cached_property
    def crossings_along(self) -> tuple[tuple[int, ...], ...]:
        """For edges 1..n in turn, the indices of the crossings on the
        edge, into ``entries``, in the order the edge meets them,
        exactly; computed once.  ``v2`` walks the curve by it and
        ``render`` breaks the under strands by it.

        Points on one edge are ordered by a coordinate in which the edge's
        int direction is non-zero, ascending or descending with its sign,
        read from their triples: X1/D1 < X2/D2 exactly when X1*D2 < X2*D1.
        """
        on: dict[int, list[int]] = {}
        for k, (lo, hi, _) in enumerate(self.entries):
            on.setdefault(lo, []).append(k)
            on.setdefault(hi, []).append(k)
        dirs = self.curve.int_directions
        out = [()] * len(dirs)
        for i, ks in on.items():
            if len(ks) > 1:
                t = dirs[i - 1]
                axis = 0 if t[0] else 1

                def ahead(a, b, entries=self.entries):
                    p, q = entries[a][2], entries[b][2]
                    return p[axis] * q[2] - q[axis] * p[2]

                ks.sort(key=cmp_to_key(ahead), reverse=t[axis] < 0)
            out[i - 1] = tuple(ks)
        return tuple(out)

    def with_over(self, flips: dict[tuple[int, int], str]) -> "TransverseDiagram":
        """Copy with the over bit replaced at the listed (lo, hi) pairs:
        the entries are kept, and only the bits are remapped."""
        return TransverseDiagram._from_entries(self.curve, self.coorientation, self.entries, tuple(
            flips.get((lo, hi), bit) for (lo, hi, _), bit in zip(self.entries, self.overs)))


def reversed_curve(curve: PolyCurve) -> PolyCurve:
    """Orientation reversal keeping the first vertex first."""
    scale, pts = curve.scaled
    return PolyCurve._from_scaled(scale, pts[:1] + pts[:0:-1])


def splice(d: TransverseDiagram, host: int, den: int, path, spots) -> Optional[TransverseDiagram]:
    """``d`` with the points ``path`` inserted after vertex ``host``, or
    None unless the new curve is generic and crosses exactly at the
    crossings of ``d`` and once at each of the points ``spots``.

    Each point is an int triple (t, ox, oz) over ``den`` > 0: the point
    a + (t/den)*e + (ox, oz)/den, where edge ``host`` runs a -> a + e.
    Over L*den, with L the curve's scale, it is den*a + t*e + L*(ox, oz)
    in the scaled units of a and e, and each old vertex is den times its
    scaled point.  A canonical scale shares no factor with all of its
    scaled points, so the old ones share exactly den with L*den, and the
    gcd g of den and the new numerators is what all of them share: the
    new curve's canonical scale is L*den/g, its old points are only
    multiplied by den/g, and no Fraction is built for its vertices.

    Every old crossing keeps its point and over bit, and each spot takes
    the over bit of sign -1.  Keeping the over bit is exact because a
    splice keeps the order of the edges: those before the host keep
    their index, the host's pieces come next and later edges shift by
    ``len(path)``, so "lo" and "hi" still name the same strands.  As in
    ``crossing_mismatch``, the expected and the detected crossings are
    sorted by the canonical int triples of their points and compared
    once: an old entry's triple, and a spot's ints over L*den
    divided by their gcd.  The two sorted lists then pair each detected
    (lo, hi) with its expected over bit, and ``_attach_over`` puts the
    crossings on the new curve, so a splice builds no Fraction.
    """
    from .transversality import over_for_sign  # it imports this module

    scale, pts = d.curve.scaled
    (ax, az), (ex, ez) = pts[host - 1], d.curve.int_directions[host - 1]

    def place(t, ox, oz):
        return ax * den + t * ex + ox * scale, az * den + t * ez + oz * scale

    new = [place(*p) for p in path]
    g = math.gcd(den, *(c for p in new for c in p))
    pts = [(x * (den // g), z * (den // g)) for x, z in pts]
    pts[host:host] = [(x // g, z // g) for x, z in new]
    curve = PolyCurve._from_scaled(scale * den // g, tuple(pts))
    if curve.genericity_violations:
        return None
    expected = [(xzd, bit) for (_, _, xzd), bit in zip(d.entries, d.overs)]
    for x, z in (place(*p) for p in spots):
        g = math.gcd(x, z, scale * den)
        expected.append(((x // g, z // g, scale * den // g), None))
    expected.sort(key=lambda e: e[0])
    found = sorted((xzd, lo, hi) for lo, hi, xzd in curve.pair_facts[0])
    if [k for k, _ in expected] != [k for k, *_ in found]:
        return None
    return _attach_over(curve, d.coorientation, {
        (lo, hi): over or over_for_sign(curve, lo, hi, -1)
        for (_, over), (_, lo, hi) in zip(expected, found)})


def detect_crossings(curve: PolyCurve) -> list[tuple[int, int, Point]]:
    """All interior transversal intersections of non-adjacent edge pairs.

    A fresh list of the curve's cached ``detected_crossings``, sorted
    by (lo, hi).
    """
    return list(curve.detected_crossings)


def check_genericity(curve: PolyCurve) -> list[Violation]:
    """All positional defects of the curve, in canonical order.

    A fresh list of the curve's cached ``genericity_violations``.
    """
    return list(curve.genericity_violations)


def min_feature_separation2(d: TransverseDiagram) -> Fraction:
    """Squared distance below which no two disjoint features approach.

    Minimum over edge lengths, vertex to non-incident edge distances,
    and pairwise crossing point distances; all squared, all exact.
    ``render`` sizes the gaps of its under strands and its margin by
    it, so that no gap reaches another feature.

    Runs by ``least_dist2`` on the vertices, as the points (k, 0) of the
    curve, and the crossings' int triples ``xzd`` as its spots.  The
    edge lengths come in as its bound: every edge starts at a vertex, so
    the shortest edge that a vertex starts is the shortest edge of all.
    """
    return least_dist2(d.curve, [(k, 0) for k in range(1, d.curve.n + 1)],
                       [xzd for _, _, xzd in d.entries])


def least_dist2(curve: PolyCurve, points, spots=()) -> Fraction:
    """The least squared distance from each of the points on the curve
    ``points``, a sequence, to every closed edge it does not lie on, and
    between any two of the ``spots``, points given as int triples (X, Z,
    D) for (X/D, Z/D), as ``TransverseDiagram.entries`` hold them; exact, in plane
    units.

    A point on the curve is a pair (i, f) with 0 <= f < 1: the point
    a + f*e of edge i, which runs a -> a + e.  With f = 0 it is vertex
    i, which starts edge i and ends edge i - 1; any other point lies on
    edge i alone.  On a generic curve that holds for every point of an
    edge but its crossings, and callers keep their points off those.

    The bound is the squared length of the shortest edge i of the points
    (i, f), and no answer exceeds it: a point (i, f) lies within |e_i|
    of the end of edge i, which starts edge i + 1, and for n >= 3 the
    point does not lie on edge i + 1.  A distance is at least the larger
    of the x-gap and the z-gap of the two features' boxes, so no pair
    of features whose boxes lie farther apart than the square root of
    the bound in either axis needs forming.  A least distance of 0
    raises TransknotError.

    Each point becomes a mark (X, Z, D) in the units of
    ``curve.scaled``, the point (X/D, Z/D) boxed by the floor and ceiling
    of each coordinate: (i, p/q) is (x*q + p*ex, z*q + p*ez, q) for the
    scaled start (x, z) and int direction (ex, ez) of edge i, read from
    ``curve.scaled`` and ``curve.int_directions``, and vertex i is its
    scaled point over 1.  A spot (X, Z, D) in plane units is the mark
    (L*X, L*Z, D) for the curve's scale L.  With w the mark less D times
    an edge's start a, the distance to the edge's far end is that of
    w - D*e, because the end is a + e exactly; the squared length
    ex*ex + ez*ez is taken only where a mark lies beyond the edge's
    start.  Each distance is kept as (num, den) and compared by
    cross-multiplication, so nothing is divided.
    """
    (scale, starts), dirs = curve.scaled, curve.int_directions
    best, best_den = min(ex * ex + ez * ez for ex, ez in (dirs[i - 1] for i, _ in points)), 1
    reach = math.isqrt(best) + 1  # above the square root
    marks, on = [], []
    for i, f in points:
        (x, z), (ex, ez), (p, q) = starts[i - 1], dirs[i - 1], f.as_integer_ratio()
        marks.append((x * q + p * ex, z * q + p * ez, q) if p else (x, z, 1))
        on.append((i - 1,) if p else (i - 1, (i - 2) % curve.n))

    def boxes(marks):
        return [(x // den, -(-x // den), z // den, -(-z // den)) for x, z, den in marks]

    for k, i in box_meeting_pairs(boxes(marks), curve.edge_boxes, reach):
        if i in on[k]:
            continue
        (px, pz, pd), (ax, az), (ex, ez) = marks[k], starts[i], dirs[i]
        wx, wz = px - ax * pd, pz - az * pd
        along = wx * ex + wz * ez
        if along <= 0:
            num, den = wx * wx + wz * wz, pd * pd
        elif along >= (length2 := ex * ex + ez * ez) * pd:
            num, den = (wx - ex * pd) ** 2 + (wz - ez * pd) ** 2, pd * pd
        else:
            num, den = (ex * wz - ez * wx) ** 2, length2 * pd * pd
        if num * best_den < best * den:
            best, best_den = num, den

    marks = [(x * scale, z * scale, den) for x, z, den in spots]
    for s, t in box_overlapping_pairs(boxes(marks), reach):
        (x1, z1, d1), (x2, z2, d2) = marks[s], marks[t]
        num, den = (x1 * d2 - x2 * d1) ** 2 + (z1 * d2 - z2 * d1) ** 2, (d1 * d2) ** 2
        if num * best_den < best * den:
            best, best_den = num, den
    if best <= 0:
        raise TransknotError("two features of the diagram coincide")
    return Fraction(best, best_den * scale * scale)


def crossing_mismatch(curve: PolyCurve, declared) -> tuple[list, list, tuple[Violation, ...]]:
    """Sorted (missing, extra, violations) for ``declared``, (lo, hi)
    pairs or (lo, hi, xzd) entries, xzd the canonical int triple of a
    point (``TransverseDiagram.entries``), counted against the detected crossings of
    ``pair_facts`` cut to the same length: the pairs of the detected
    entries that ``declared`` lacks, the pairs of its entries beyond the
    detected ones, and one CrossingMismatch per pair in either list.  A
    pair named twice, or at a point where the curve does not cross, is
    in one of them at least.

    Both lists are sorted first, so when they agree a single comparison
    of ints decides it, which builds no Fraction."""
    named = sorted(declared)
    width = len(named[0]) if named else 2
    detected = [entry[:width] for entry in curve.pair_facts[0]]
    if named == detected:
        return [], [], ()
    named, detected = Counter(named), Counter(detected)
    missing = sorted(entry[:2] for entry in detected - named)
    extra = sorted(entry[:2] for entry in named - detected)
    return missing, extra, tuple(Violation(ViolationKind.CrossingMismatch, edges=pair)
                                 for pair in sorted(set(missing + extra)))


def _attach_over(curve: PolyCurve, coor: Coorientation, over: dict) -> TransverseDiagram:
    """The diagram on the detected crossings, over bits from ``over``,
    which maps each pair (lo, hi) of ``pair_facts`` to "lo" or "hi".

    This is the one place that puts a curve's pair pass on a diagram:
    the diagram keeps the pass's own tuple as its ``entries``, and only
    the tuple of bits is made, so no ``Crossing`` is built.  The readers,
    ``build_diagram``, ``splice``, the random draw and ``resolve`` hand
    it their maps.  A caller whose map may miss a pair checks it first
    with ``crossing_mismatch``."""
    entries = curve.pair_facts[0]
    return TransverseDiagram._from_entries(curve, coor, entries,
                                           tuple([over[lo, hi] for lo, hi, _ in entries]))


def build_diagram(
    vertices,
    coorientation: Coorientation,
    over: dict[tuple[int, int], str],
) -> TransverseDiagram:
    """Construct a diagram from raw vertex data and an over map.

    ``vertices`` is any iterable of (x, z) pairs; ``over`` maps each
    detected crossing pair (lo, hi) to "lo" or "hi".  The curve must be
    generic (NongenericCurveError) and the over map must cover exactly
    the detected crossings (ValueError).
    """
    curve = PolyCurve(tuple(Point(Fraction(x), Fraction(z)) for x, z in vertices))
    if curve.genericity_violations:
        raise NongenericCurveError(curve.genericity_violations)
    missing, extra, mismatch = crossing_mismatch(curve, over)
    if mismatch:
        raise ValueError(
            f"over map does not match detected crossings: "
            f"missing {missing}, extra {extra}"
        )
    return _attach_over(curve, coorientation, over)


# --- text format -----------------------------------------------------------

FORMAT_HEADER = "transverse-diagram/1"

# Limits on one rational token of the text format.  The token is at
# most MAX_TOKEN_CHARS characters long and a decimal exponent in it at
# most MAX_EXPONENT in absolute value, both checked before the token is
# converted, where `1e400000` alone would cost seconds.  A decimal token
# must also denote a rational whose canonical text, as serialize_diagram
# writes it, fits MAX_TOKEN_CHARS (an integer or a/b token never writes
# out longer than it reads).  So every parsed diagram serializes, each
# numerator and denominator well inside the 4300 digits Python turns
# into text, and the text it serializes to parses back to it.
MAX_TOKEN_CHARS = 1000
MAX_EXPONENT = 1000

# Limits on the work of one parse, past which a file is refused with
# one ParseError: the vertex count; the bit length of the lcm of the
# coordinate denominators, the scale of ``PolyCurve.scaled`` and so of
# the ints every pair test multiplies, computed one distinct denominator
# at a time and refused as soon as it passes the limit; and the pairs
# of edges whose boxes meet, adjacent ones included, which the curve's
# one pair pass counts in its sweep and stops at the pair after the
# limit.  The command line's largest stabilization, 1000 loops on any
# edge of the benchmark's inputs, gives at most 10,095 vertices, an lcm
# of 101 bits and 45,242 edge pairs.  Chained stabilizations keep
# adding denominators, which share most of their factors, so the lcm
# grows far more slowly than their bit lengths add up.
MAX_VERTICES = 20_000
MAX_DENOMINATOR_BITS = 8_192
MAX_EDGE_PAIRS = 100_000


def _parse_rational(token: str, lineno: int) -> tuple[int, int]:
    """The value of ``Fraction(token)`` as a reduced pair (numerator,
    denominator > 0); a token that Fraction refuses, or one past the
    limits above, raises ParseError.

    An integer or an a/b token, all that serialize_diagram writes, is
    read by int() on either side of the slash, with no sign on the
    denominator and the denominator not 0, and builds no Fraction: a
    token holds no whitespace, so int() reads each side as Fraction
    does.  Any other token is read by ``Fraction(token)`` itself, once
    its exponent is known to be small.  The ones it accepts are
    decimals, with a point, an exponent or both, in Fraction's grammar,
    which takes PEP 515 underscores from Python 3.11 on.
    """
    if len(token) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"rational token longer than {MAX_TOKEN_CHARS} characters")
    num, slash, den = token.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        q = 0
    if q > 0 and den[:1] != "+":
        g = math.gcd(p, q)
        return p // g, q // g
    _, e, exponent = token.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_large = False  # no exponent: the token is refused below
        if too_large:
            raise ParseError(lineno, f"exponent of {token!r} exceeds {MAX_EXPONENT}")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {token!r}") from None
    if len(str(value)) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"{token!r} written as a fraction is longer than "
                                 f"{MAX_TOKEN_CHARS} characters")
    return value.numerator, value.denominator


def _bounded_lcm(dens) -> Optional[int]:
    """The lcm of the denominators ``dens``, taken one at a time, or None
    as soon as it passes MAX_DENOMINATOR_BITS bits: the scale of a read
    curve, which the canonical reader declines and the line reader
    refuses past the limit."""
    scale = 1
    for den in dens:
        scale = math.lcm(scale, den)
        if scale.bit_length() > MAX_DENOMINATOR_BITS:
            return None
    return scale


def _rational_text(p: int, q: int) -> str:
    """p / q, q > 0, as ``str(Fraction(p, q))`` writes it."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


@cache
def _canonical_pattern() -> re.Pattern:
    """The whole of a text as ``serialize_diagram`` writes it, its
    coorientation, vertex lines and crossing lines as the three groups;
    compiled on the first parse, so a command that reads no diagram pays
    nothing for it.

    A token is 0, or a non-zero integer or fraction with an optional
    minus sign, written in [0-9] with no leading zero, no ``+``, no
    underscore and a denominator of at least 2.  Each block of lines is
    matched by a possessive quantifier (Python 3.11), which gives back
    no line it took: no match backtracks into a block, and a text
    broken on its last line is refused in one pass.
    """
    token = r"(?:0|-?[1-9][0-9]*(?:/(?:[1-9][0-9]+|[2-9]))?)"
    index = r"[1-9][0-9]*"
    return re.compile(
        f"{re.escape(FORMAT_HEADER)}\ncoorientation: ([+-])\nvertices:\n"
        f"((?:{token} {token}\n)++)over:\n"
        f"((?:cross {index} {index} over=(?:lo|hi)\n)*+)end\n")


def _read_canonical(text: str):
    """(curve, coorientation, declared over bits) of a text in the form
    ``serialize_diagram`` writes, read by one match of
    ``_canonical_pattern``, or None: the line reader reads everything
    else.  It declines, and raises nothing, unless the text matches and
    is exactly what the line reader would accept: every limit holds,
    read at call time, every fraction is in lowest terms, and the
    crossing pairs are in range and strictly ascending.  The vertex
    count and the token length are checked before any token is
    converted, and the lcm of the denominators before any numerator is.
    The curve keeps the matched vertex lines as its ``vertex_text``:
    with every fraction in lowest terms, they are the lines it writes.
    """
    m = _canonical_pattern().fullmatch(text)
    if m is None:
        return None
    sign, block, lines = m.groups()
    n = block.count("\n")
    tokens = block.split()
    if not 3 <= n <= MAX_VERTICES or max(map(len, tokens)) > MAX_TOKEN_CHARS:
        return None
    nums, _, dens = zip(*[token.partition("/") for token in tokens])
    den_of = {q: int(q) if q else 1 for q in set(dens)}
    if (scale := _bounded_lcm(den_of.values())) is None:
        return None
    ps, qs = list(map(int, nums)), [den_of[q] for q in dens]
    if max(map(math.gcd, ps, qs)) > 1:  # a fraction not in lowest terms
        return None
    ints = [p * (scale // q) for p, q in zip(ps, qs)]

    words = lines.split()
    if max(map(len, words[1::4] + words[2::4]), default=0) > len(str(n)):  # an index past n
        return None
    pairs = list(zip(map(int, words[1::4]), map(int, words[2::4])))
    if not all(lo < hi <= n for lo, hi in pairs) or pairs != sorted(set(pairs)):
        return None
    curve = PolyCurve._from_scaled(scale, tuple(zip(ints[::2], ints[1::2])))
    vars(curve)["vertex_text"] = block  # the cache of PolyCurve.vertex_text
    coor = Coorientation.PLUS if sign == "+" else Coorientation.MINUS
    return curve, coor, dict(zip(pairs, [word[5:] for word in words[3::4]]))


def _read_lines(text: str):
    """(curve, coorientation, declared over bits) of any text the format
    admits, read line by line; the source of every ParseError about the
    text itself."""
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))

    pos = 0

    def take(expect: Optional[str] = None) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(lines) and lines[-1][0], "unexpected end of file")
        item = lines[pos]
        pos += 1
        if expect is not None and item[1] != expect:
            raise ParseError(item[0], f"expected {expect!r}, got {item[1]!r}")
        return item

    take(FORMAT_HEADER)
    lineno, line = take()
    if line == "coorientation: +":
        coor = Coorientation.PLUS
    elif line == "coorientation: -":
        coor = Coorientation.MINUS
    else:
        raise ParseError(lineno, f"expected coorientation line, got {line!r}")

    take("vertices:")
    coords: list[tuple[int, int]] = []  # x then z of every vertex
    while pos < len(lines) and lines[pos][1] != "over:":
        lineno, line = take()
        if len(coords) == 2 * MAX_VERTICES:
            raise ParseError(lineno, f"more than {MAX_VERTICES} vertices")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected two rationals, got {line!r}")
        coords += (_parse_rational(parts[0], lineno), _parse_rational(parts[1], lineno))
    n = len(coords) // 2
    if n < 3:
        raise ParseError(lines[pos][0] if pos < len(lines) else 0,
                         "need at least 3 vertices")
    if (scale := _bounded_lcm({q for _, q in coords})) is None:
        raise ParseError(0, f"lcm of the denominators exceeds {MAX_DENOMINATOR_BITS} bits")

    take("over:")
    declared: dict[tuple[int, int], str] = {}
    while pos < len(lines) and lines[pos][1] != "end":
        lineno, line = take()
        parts = line.split()
        if len(parts) != 4 or parts[0] != "cross" or not parts[3].startswith("over="):
            raise ParseError(lineno, f"expected 'cross <lo> <hi> over=<lo|hi>', got {line!r}")
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, f"bad edge index in {line!r}") from None
        over = parts[3][len("over="):]
        if over not in ("lo", "hi"):
            raise ParseError(lineno, f"over must be 'lo' or 'hi', got {over!r}")
        if not (1 <= lo < hi <= n):
            raise ParseError(lineno, f"edge pair ({lo},{hi}) out of range or unordered")
        if (lo, hi) in declared:
            raise ParseError(lineno, f"duplicate crossing ({lo},{hi})")
        declared[(lo, hi)] = over
    take("end")
    if pos < len(lines):
        raise ParseError(lines[pos][0], "content after 'end'")

    ints = [p * (scale // q) for p, q in coords]
    return PolyCurve._from_scaled(scale, tuple(zip(ints[::2], ints[1::2]))), coor, declared


def parse_diagram(text: str) -> TransverseDiagram:
    """Parse the text format; raises ParseError on any defect.

    The curve must be generic, and the declared crossing list must
    match the geometrically detected one exactly (CrossingMismatchError
    otherwise); in both cases the violations travel on the ParseError.
    A file past MAX_VERTICES, MAX_DENOMINATOR_BITS or MAX_EDGE_PAIRS is
    refused before the work they bound is done.

    Text in the form ``serialize_diagram`` writes, as every file the
    command line writes is, is read by one match (``_read_canonical``);
    any other spelling, and any canonical text that breaks a rule, by
    the line reader, which gives the same diagram or the same error.
    Both hand their curve to the one pair pass and the checks below.
    """
    curve, coor, declared = _read_canonical(text) or _read_lines(text)
    facts = _crossing_scan(curve, MAX_EDGE_PAIRS)
    if facts is None:
        raise ParseError(0, f"more than {MAX_EDGE_PAIRS} pairs of edges with meeting boxes")
    vars(curve)["pair_facts"] = facts  # the cache of PolyCurve.pair_facts
    if curve.genericity_violations:
        raise ParseError(0, "curve is not generic", violations=curve.genericity_violations)
    missing, extra, mismatch = crossing_mismatch(curve, declared)
    if mismatch:
        raise CrossingMismatchError(missing, extra, mismatch)
    return _attach_over(curve, coor, declared)


def serialize_diagram(d: TransverseDiagram) -> str:
    """Canonical text; round-trips byte-for-byte through parse_diagram.

    The vertex lines are the curve's ``vertex_text``: formatted once per
    curve, and not at all for a curve read from canonical text."""
    crossings = "".join(f"cross {lo} {hi} over={bit}\n"
                        for (lo, hi, _), bit in zip(d.entries, d.overs))
    return (f"{FORMAT_HEADER}\ncoorientation: {d.coorientation.value}\nvertices:\n"
            f"{d.curve.vertex_text}over:\n{crossings}end\n")
