"""Diagram data model, genericity checking, crossing detection, text format.

A diagram is a closed polygonal curve in the (x, z) plane together with
a coorientation sign and an over/under bit per crossing.  The strand
drawn on top is the one with the smaller y-coordinate in space, so
``over`` is a drawing datum; no y-values are ever stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .errors import CrossingMismatchError, NongenericCurveError, ParseError, TransknotError
from .geometry import (
    Point,
    Vec,
    cross,
    dist2,
    dot,
    point_in_open_segment,
    point_segment_dist2,
    segment_intersection,
    vec,
)


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


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class PolyCurve:
    """Closed oriented polygonal curve; edge i runs vertex i -> i+1.

    Vertices and edges are indexed 1-based and cyclically, so edge n
    closes the loop back to vertex 1.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a closed curve needs at least 3 vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point:
        return self.vertices[(i - 1) % self.n]

    def edge(self, i: int) -> tuple[Point, Point]:
        return self.vertex(i), self.vertex(i + 1)

    def direction(self, i: int) -> Vec:
        a, b = self.edge(i)
        return vec(a, b)

    def edges(self) -> Iterator[tuple[int, Point, Point]]:
        for i in range(1, self.n + 1):
            a, b = self.edge(i)
            yield i, a, b

    def corners(self) -> Iterator[tuple[int, Vec, Vec]]:
        """Yield (i, d_in, d_out) for the corner at vertex i."""
        for i in range(1, self.n + 1):
            yield i, self.direction(i - 1), self.direction(i)

    def adjacent_edges(self, i: int, j: int) -> bool:
        """Whether edges i and j share a vertex (cyclically)."""
        return (i - j) % self.n in (0, 1, self.n - 1)

    @cached_property
    def detected_crossings(self) -> tuple[tuple[int, int, Point], ...]:
        """(lo, hi, point) for every interior transversal intersection of
        non-adjacent edges, sorted by (lo, hi).  Computed once, and apart
        from ``genericity_violations`` so that callers needing only the
        crossings never pay for the genericity pass.
        """
        found = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.adjacent_edges(i, j):
                    continue
                a, b = self.edge(i)
                c, d = self.edge(j)
                p = segment_intersection(a, b, c, d)
                if p is not None:
                    found.append((i, j, p))
        return tuple(found)

    @cached_property
    def genericity_violations(self) -> tuple[Violation, ...]:
        """All positional defects of the curve, in canonical order.

        Empty means: no zero-length edges, no exact reversals, no
        duplicate vertices, no vertex interior to a non-incident edge,
        no collinear overlaps, and non-adjacent edges meeting in at most
        one interior point with all such points distinct.  Computed once.
        """
        out: list[Violation] = []
        n = self.n

        zero = set()
        for i, a, b in self.edges():
            if a == b:
                zero.add(i)
                out.append(Violation(ViolationKind.ZeroEdge, edges=(i,)))

        for i, d_in, d_out in self.corners():
            e_in = (i - 2) % n + 1
            if e_in in zero or i in zero:
                continue
            if cross(d_in, d_out) == 0 and dot(d_in, d_out) < 0:
                out.append(Violation(ViolationKind.ReversalCorner, edges=(e_in, i)))

        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if self.vertex(i) == self.vertex(j) and (j - i) % n not in (1, n - 1):
                    out.append(
                        Violation(ViolationKind.EndpointContact, point=self.vertex(i))
                    )

        for i in range(1, n + 1):
            if i in zero:
                continue
            a, b = self.edge(i)
            di = vec(a, b)
            for j in range(i + 1, n + 1):
                if j in zero:
                    continue
                c, d = self.edge(j)
                if cross(di, vec(c, d)) != 0 or cross(di, vec(a, c)) != 0:
                    continue
                if _spans_overlap(a, b, c, d):
                    out.append(Violation(ViolationKind.CollinearOverlap, edges=(i, j)))

        for k in range(1, n + 1):
            p = self.vertex(k)
            for i in range(1, n + 1):
                if (k - i) % n in (0, 1):
                    continue  # edge i is incident to vertex k
                a, b = self.edge(i)
                if point_in_open_segment(p, a, b):
                    out.append(Violation(ViolationKind.VertexOnEdge, point=p))
                    break

        points: dict[Point, int] = {}
        for _, _, p in self.detected_crossings:
            points[p] = points.get(p, 0) + 1
        for p, count in points.items():
            if count > 1:
                out.append(Violation(ViolationKind.TriplePoint, point=p))

        return tuple(sort_violations(out))


@dataclass(frozen=True, order=True)
class Crossing:
    """A transversal double point of the projection.

    ``lo < hi`` index the two edges; ``over`` names the strand drawn on
    top (the one with the smaller y-coordinate in space).
    """

    lo: int
    hi: int
    point: Point
    over: str  # "lo" or "hi"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("crossing edges must satisfy lo < hi")
        if self.over not in ("lo", "hi"):
            raise ValueError("over must be 'lo' or 'hi'")

    @property
    def over_edge(self) -> int:
        return self.lo if self.over == "lo" else self.hi

    @property
    def under_edge(self) -> int:
        return self.hi if self.over == "lo" else self.lo


@dataclass(frozen=True)
class TransverseDiagram:
    curve: PolyCurve
    coorientation: Coorientation
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "crossings", tuple(sorted(self.crossings))
        )

    def with_over(self, flips: dict[tuple[int, int], str]) -> "TransverseDiagram":
        """Copy with the over bit replaced at the listed (lo, hi) pairs."""
        new = tuple(
            Crossing(c.lo, c.hi, c.point, flips.get((c.lo, c.hi), c.over))
            for c in self.crossings
        )
        return TransverseDiagram(self.curve, self.coorientation, new)


def reversed_curve(curve: PolyCurve) -> PolyCurve:
    """Orientation reversal keeping the first vertex first."""
    v = curve.vertices
    return PolyCurve((v[0],) + tuple(reversed(v[1:])))


def detect_crossings(curve: PolyCurve) -> list[tuple[int, int, Point]]:
    """All interior transversal intersections of non-adjacent edge pairs.

    A fresh list of the curve's cached ``detected_crossings``, sorted
    by (lo, hi).
    """
    return list(curve.detected_crossings)


def _spans_overlap(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether collinear segments ab and cd share more than one point."""
    ref = vec(a, b)
    lo1, hi1 = sorted((Fraction(0), dot(ref, ref)))
    lo2, hi2 = sorted((dot(vec(a, c), ref), dot(vec(a, d), ref)))
    return min(hi1, hi2) > max(lo1, lo2)


def check_genericity(curve: PolyCurve) -> list[Violation]:
    """All positional defects of the curve, in canonical order.

    A fresh list of the curve's cached ``genericity_violations``.
    """
    return list(curve.genericity_violations)


def min_feature_separation2(d: TransverseDiagram) -> Fraction:
    """Squared distance below which no two disjoint features approach.

    Minimum over edge lengths, vertex to non-incident edge distances,
    and pairwise crossing point distances; all squared, all exact.
    Used to bound perturbation sizes so a push-off cannot jump across
    a strand or a crossing cannot collide with another feature.
    """
    curve = d.curve
    n = curve.n
    best: Optional[Fraction] = None

    def consider(v: Fraction):
        nonlocal best
        if best is None or v < best:
            best = v

    for i, a, b in curve.edges():
        consider(dist2(a, b))
    for k in range(1, n + 1):
        p = curve.vertex(k)
        for i in range(1, n + 1):
            if (k - i) % n in (0, 1):
                continue
            a, b = curve.edge(i)
            consider(point_segment_dist2(p, a, b))
    pts = [c.point for c in d.crossings]
    for s in range(len(pts)):
        for t in range(s + 1, len(pts)):
            consider(dist2(pts[s], pts[t]))

    if best is None or best <= 0:
        raise TransknotError("two features of the diagram coincide")
    return best


def crossing_mismatch(curve: PolyCurve, declared) -> tuple[list, list]:
    """Sorted (missing, extra): the detected crossing pairs absent from
    ``declared``, and the declared pairs the curve does not cross."""
    detected = {(lo, hi) for lo, hi, _ in curve.detected_crossings}
    declared = set(declared)
    return sorted(detected - declared), sorted(declared - detected)


def _attach_over(curve: PolyCurve, coor: Coorientation, over: dict) -> TransverseDiagram:
    """The diagram on the detected crossings, over bits from ``over``."""
    crossings = (Crossing(lo, hi, p, over[(lo, hi)]) for lo, hi, p in curve.detected_crossings)
    return TransverseDiagram(curve, coor, tuple(crossings))


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
    missing, extra = crossing_mismatch(curve, over)
    if missing or extra:
        raise ValueError(
            f"over map does not match detected crossings: "
            f"missing {missing}, extra {extra}"
        )
    return _attach_over(curve, coorientation, over)


# --- text format -----------------------------------------------------------

FORMAT_HEADER = "transverse-diagram/1"


def _parse_fraction(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {token!r}") from None


def parse_diagram(text: str) -> TransverseDiagram:
    """Parse the text format; raises ParseError on any defect.

    The curve must be generic, and the declared crossing list must
    match the geometrically detected one exactly (CrossingMismatchError
    otherwise); in both cases the violations travel on the ParseError.
    """
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
    verts: list[Point] = []
    while pos < len(lines) and lines[pos][1] != "over:":
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected two rationals, got {line!r}")
        verts.append(
            Point(_parse_fraction(parts[0], lineno), _parse_fraction(parts[1], lineno))
        )
    if len(verts) < 3:
        raise ParseError(lines[pos][0] if pos < len(lines) else 0,
                         "need at least 3 vertices")

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
        if not (1 <= lo < hi <= len(verts)):
            raise ParseError(lineno, f"edge pair ({lo},{hi}) out of range or unordered")
        if (lo, hi) in declared:
            raise ParseError(lineno, f"duplicate crossing ({lo},{hi})")
        declared[(lo, hi)] = over
    take("end")
    if pos < len(lines):
        raise ParseError(lines[pos][0], "content after 'end'")

    curve = PolyCurve(tuple(verts))
    if curve.genericity_violations:
        raise ParseError(0, "curve is not generic", violations=curve.genericity_violations)
    missing, extra = crossing_mismatch(curve, declared)
    if missing or extra:
        violations = [Violation(ViolationKind.CrossingMismatch, edges=pair)
                      for pair in sorted(missing + extra)]
        raise CrossingMismatchError(missing, extra, violations)
    return _attach_over(curve, coor, declared)


def serialize_diagram(d: TransverseDiagram) -> str:
    """Canonical text; round-trips byte-for-byte through parse_diagram."""
    out = [FORMAT_HEADER, f"coorientation: {d.coorientation.value}", "vertices:"]
    for p in d.curve.vertices:
        out.append(f"{p.x} {p.z}")
    out.append("over:")
    for c in d.crossings:
        out.append(f"cross {c.lo} {c.hi} over={c.over}")
    out.append("end")
    return "\n".join(out) + "\n"
