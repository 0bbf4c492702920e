"""Framing torsors over a 3-manifold, declared as trusted inputs.

Framings of a knot form a set acted on freely and transitively by the
integers (or by Z/m once the manifold's torus pairings collapse the
action).  Whether a consistent relative framing exists across a whole
component of knots depends on properties of the ambient manifold that
this package cannot compute; they enter as declared descriptor fields
and the decision procedures here only combine them.

The payoff is the relative Bennequin invariant: a chosen framing
constant per component turns the diagram-level self-linking number
into an invariant whose differences are framing-independent, and whose
drop under stabilization distinguishes framed classes.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple, Optional

from .diagram import Coorientation, Frozen, TransverseDiagram
from .errors import ComponentMismatchError, PreconditionFailedError
from .invariants import self_linking
from .transversality import require_valid


class ManifoldDescriptor(NamedTuple):
    """Trusted declarations about the ambient manifold.

    ``torus_pairings`` lists the integer evaluations of the relevant
    Euler class against a declared family of tori; the family is only
    known to be complete when ``pairings_exhaustive`` says so.
    """

    euler_finite_order: bool = False
    closed_irreducible_atoroidal: bool = False
    tight_contact: bool = False
    has_nonseparating_sphere: bool = False
    torus_pairings: tuple[int, ...] = ()
    pairings_exhaustive: bool = False


def compute_m_T(pairings: Iterable[int]) -> int:
    """GCD of the absolute pairing values; 0 for the empty sequence."""
    return math.gcd(*pairings)


class FramingTorsor(Frozen):
    """Integer framings up to the declared modulus (0 = full integers)."""

    __slots__ = _fields = ("modulus",)
    modulus: int

    def __init__(self, modulus: int):
        if modulus < 0:
            raise ValueError("modulus must be nonnegative")
        object.__setattr__(self, "modulus", modulus)


def act(t: FramingTorsor, k: int, x: int) -> int:
    """Shift the framing x by k, reduced modulo the torsor's modulus."""
    if t.modulus == 0:
        return x + k
    if not 0 <= x < t.modulus:
        raise ValueError(f"element {x} is not reduced mod {t.modulus}")
    return (x + k) % t.modulus


def loop_delta(events: Iterable[int]) -> int:
    """Total framing twist along a loop given as elementary events."""
    return sum(events)


class ExistenceKind(enum.Enum):
    EXISTS = "EXISTS"
    MOD_ONLY = "MOD"
    UNKNOWN = "UNKNOWN"


class ExistenceResult(NamedTuple):
    kind: ExistenceKind
    reason: Optional[str] = None
    modulus: Optional[int] = None


# Reasons, in the order they are checked.
_EXISTENCE_FLAGS = (
    ("euler_finite_order", "euler-class-finite-order"),
    ("closed_irreducible_atoroidal", "closed-irreducible-atoroidal"),
    ("tight_contact", "tight-contact-structure"),
)


def relative_framing_exists(desc: ManifoldDescriptor) -> ExistenceResult:
    """Decide whether a relative framing exists on all of the manifold.

    Any one of the three sufficient conditions settles it, as does a
    vanishing m_T.  Otherwise the pairings only bound the ambiguity:
    with an exhaustive family the framing exists mod m_T, and with a
    partial one nothing can be concluded.
    """
    for field, reason in _EXISTENCE_FLAGS:
        if getattr(desc, field):
            return ExistenceResult(ExistenceKind.EXISTS, reason=reason)
    m = compute_m_T(desc.torus_pairings)
    if m == 0:
        return ExistenceResult(ExistenceKind.EXISTS, reason="m_T=0")
    if desc.pairings_exhaustive:
        return ExistenceResult(ExistenceKind.MOD_ONLY, modulus=m)
    return ExistenceResult(ExistenceKind.UNKNOWN)


class ComponentLabel(NamedTuple):
    """A component of the space of transverse curves in a free homotopy
    class: the class name plus which side the coorientation points."""

    curve_class: str
    coorientation: Coorientation


def transverse_components(curve_class: str) -> tuple[ComponentLabel, ComponentLabel]:
    """The two transverse components carried by one curve class."""
    return (
        ComponentLabel(curve_class, Coorientation.PLUS),
        ComponentLabel(curve_class, Coorientation.MINUS),
    )


class RelativeFraming(NamedTuple):
    """A relative framing of one component, pinned by its value on a
    chosen basepoint knot."""

    component: ComponentLabel
    constant: int


def relative_bennequin(F: RelativeFraming, d: TransverseDiagram) -> int:
    """Bennequin invariant of d relative to the framing F.

    The diagram must be valid and belong to F's component (only the
    coorientation is checkable from the diagram).  Two framings of the
    same component give values differing by a constant everywhere.
    """
    require_valid(d)
    if d.coorientation is not F.component.coorientation:
        raise ComponentMismatchError(
            f"diagram is cooriented {d.coorientation.value} but the framing "
            f"is for {F.component.coorientation.value}"
        )
    return self_linking(d) + F.constant


class Equality(enum.Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    INDETERMINATE = "indeterminate"


def framed_classes_equal(
    desc: ManifoldDescriptor,
    a: tuple[ComponentLabel, int],
    b: tuple[ComponentLabel, int],
) -> Equality:
    """Compare two framed knot classes given as (label, framing offset).

    Without a nonseparating sphere, distinct framing offsets of the
    same knot are never isotopic, so equality is componentwise.  With
    one, offsets can slide and the model honestly refuses to decide
    between equal labels with unequal offsets.
    """
    label_a, off_a = a
    label_b, off_b = b
    if label_a != label_b:
        return Equality.UNEQUAL
    if off_a == off_b:
        return Equality.EQUAL
    if desc.has_nonseparating_sphere:
        return Equality.INDETERMINATE
    return Equality.UNEQUAL


class DistinguishResult(NamedTuple):
    distinguished: bool
    torsor_line: str


def distinguish_by_relative_framing(
    desc: ManifoldDescriptor, zero_homologous: bool, stabilization_count: int
) -> DistinguishResult:
    """Can k stabilizations be told apart from the original knot?

    Requires an established relative framing (PreconditionFailedError
    otherwise).  k stabilizations shift the framing class by -2k, so
    the knots are distinguished whenever k is nonzero and the framing
    shift is faithful: either the knot is zero-homologous or the
    manifold has no nonseparating sphere.  Only negative stabilizations
    are transverse, so a count below 0 names no knot and raises
    ValueError.
    """
    if stabilization_count < 0:
        raise ValueError("stabilization count must be nonnegative")
    existence = relative_framing_exists(desc)
    if existence.kind is not ExistenceKind.EXISTS:
        raise PreconditionFailedError(
            "relative framing existence is not established for this descriptor"
        )
    k = stabilization_count
    distinguished = k != 0 and (zero_homologous or not desc.has_nonseparating_sphere)
    line = f"F(K1) = ({-2 * k})·F(K0)"
    return DistinguishResult(distinguished, line)
