"""The value types keep the contract of the frozen dataclasses they were.

Equal values are equal and hash as their field tuple, so set and dict
orders do not move, except ``PolyCurve``, which hashes as its ``scaled``
ints, the data its equality compares, and so builds no Fraction view; crossings sort by (lo, hi, point, over), do not
order against other types, and a diagram sorts the crossings it is
given; constructors refuse bad input with ValueError; fields cannot be
assigned or deleted.
"""

import pytest

from transknot.diagram import (
    Coorientation,
    Crossing,
    PolyCurve,
    TransverseDiagram,
    Violation,
    build_diagram,
)
from transknot.fixtures import (
    minus_unknot,
    trefoil_left,
    trefoil_right,
    u_minus,
    u_minus_forbidden,
)
from transknot.framing import FramingTorsor
from transknot.invariants import InvariantValue, invariant_values
from transknot.moves_singular import random_valid_diagram
from transknot.transversality import ValidityReport, check_condition1, validate

DIAGRAMS = [make() for make in (u_minus, minus_unknot, trefoil_right, trefoil_left)]
DIAGRAMS += [random_valid_diagram(seed) for seed in range(4)]

FIELDS = {
    Violation: ("kind", "edges", "point"),
    Crossing: ("lo", "hi", "point", "over"),
    PolyCurve: ("vertices",),
    TransverseDiagram: ("curve", "coorientation", "crossings"),
    ValidityReport: ("violations",),
    InvariantValue: ("name", "value"),
}


def values():
    """Instances of every type in FIELDS, drawn from DIAGRAMS."""
    out = []
    for d in DIAGRAMS:
        other = Coorientation.MINUS if d.coorientation is Coorientation.PLUS else Coorientation.PLUS
        out += [d, d.curve, validate(d), *d.crossings, *invariant_values(d)]
        out += check_condition1(d.curve, other)  # edge-located violations
    out += validate(u_minus_forbidden()).violations  # point-located ones
    return out


def field_tuple(x) -> tuple:
    return tuple(getattr(x, f) for f in FIELDS[type(x)])


def test_every_type_is_covered():
    assert {type(x) for x in values()} == set(FIELDS)


@pytest.mark.parametrize("x", values(), ids=lambda x: type(x).__name__)
def test_hash_and_equality_are_those_of_the_field_tuple(x):
    copy = type(x)(*field_tuple(x))
    if isinstance(x, PolyCurve):
        ints = PolyCurve._from_scaled(*x.scaled)
        assert hash(x) == hash(x.scaled) == hash(copy) == hash(ints)
        assert x == ints and not x != ints
    else:
        assert hash(x) == hash(field_tuple(x)) == hash(copy)
    assert x == copy and not x != copy
    with pytest.raises(AttributeError):
        setattr(x, FIELDS[type(x)][0], None)
    with pytest.raises(AttributeError):
        delattr(x, FIELDS[type(x)][0])


def test_hand_written_types_differ_from_their_field_tuples():
    d = DIAGRAMS[0]
    for x in (d, d.curve, d.crossings[0]):
        assert x != field_tuple(x)
    assert FramingTorsor(3) == FramingTorsor(3) != FramingTorsor(4)
    assert FramingTorsor(3) != (3,) and hash(FramingTorsor(3)) == hash((3,))


def test_repr_names_the_fields():
    c = DIAGRAMS[0].crossings[0]
    assert repr(c) == f"Crossing(lo={c.lo!r}, hi={c.hi!r}, point={c.point!r}, over={c.over!r})"
    assert repr(FramingTorsor(0)) == "FramingTorsor(modulus=0)"


@pytest.mark.parametrize("d", DIAGRAMS)
def test_crossings_sort_by_lo_hi_point_over(d):
    shuffled = tuple(reversed(d.crossings))
    by_fields = sorted(shuffled, key=lambda c: (c.lo, c.hi, c.point, c.over))
    assert sorted(shuffled) == by_fields == list(d.crossings)
    assert TransverseDiagram(d.curve, d.coorientation, shuffled).crossings == d.crossings
    assert TransverseDiagram(d.curve, d.coorientation, shuffled) == d
    if len(d.crossings) > 1:
        a, b = d.crossings[:2]
        assert a < b and a <= b and b > a and b >= a and not b < a
    for c in d.crossings:
        with pytest.raises(TypeError):
            c < (c.lo, c.hi, c.point, c.over)


def test_constructors_refuse_bad_input():
    p = DIAGRAMS[0].crossings[0].point
    for make, message in [
        (lambda: PolyCurve(DIAGRAMS[0].curve.vertices[:2]), "at least 3 vertices"),
        (lambda: Crossing(2, 2, p, "lo"), "lo < hi"),
        (lambda: Crossing(1, 2, p, "top"), "over must be"),
        (lambda: DIAGRAMS[0].with_over({DIAGRAMS[0].entries[0][:2]: "top"}), "over must be"),
        (lambda: build_diagram(DIAGRAMS[0].curve.vertices, Coorientation.PLUS,
                               {(lo, hi): "top" for lo, hi, _ in DIAGRAMS[0].entries}),
         "over must be"),
        (lambda: FramingTorsor(-1), "nonnegative"),
    ]:
        with pytest.raises(ValueError, match=message):
            make()
