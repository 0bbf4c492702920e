import random

import pytest

from transknot.diagram import Coorientation
from transknot.errors import (
    ComponentMismatchError,
    InvalidDiagramError,
    PreconditionFailedError,
)
from transknot.fixtures import minus_unknot, trefoil_right, u_minus, u_minus_forbidden
from transknot.framing import (
    ComponentLabel,
    Equality,
    ExistenceKind,
    FramingTorsor,
    ManifoldDescriptor,
    RelativeFraming,
    act,
    compute_m_T,
    distinguish_by_relative_framing,
    framed_classes_equal,
    loop_delta,
    relative_bennequin,
    relative_framing_exists,
    transverse_components,
)
from transknot.moves_singular import random_valid_diagram, stabilize


class TestComputeMT:
    def test_reference_values(self):
        assert compute_m_T([]) == 0
        assert compute_m_T([4, 6]) == 2
        assert compute_m_T([0, 0, 5]) == 5
        assert compute_m_T([2]) == 2
        assert compute_m_T([0, 0]) == 0

    def test_sign_insensitive(self):
        assert compute_m_T([-4, 6]) == 2
        assert compute_m_T([-3]) == 3
        assert compute_m_T([-4, 6, 0]) == 2
        assert compute_m_T(p for p in (-6, 0, 9)) == 3


class TestTorsor:
    def test_modulus_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FramingTorsor(-1)

    def test_integer_case(self):
        t = FramingTorsor(0)
        assert act(t, 5, -3) == 2
        assert act(t, -7, 2) == -5

    def test_modular_case(self):
        t = FramingTorsor(3)
        assert act(t, 4, 2) == 0
        with pytest.raises(ValueError):
            act(t, 1, 3)
        with pytest.raises(ValueError):
            act(t, 1, -1)

    @pytest.mark.parametrize("m", [0, 2, 3])
    def test_action_laws(self, m):
        t = FramingTorsor(m)
        elements = range(m) if m else range(-5, 6)
        for x in elements:
            assert act(t, 0, x) == x
            for k in range(-10, 11):
                for l in range(-10, 11):
                    assert act(t, k + l, x) == act(t, k, act(t, l, x))

    @pytest.mark.parametrize("m", [2, 3])
    def test_transitivity_is_simple(self, m):
        # exactly one reduced shift maps x to y
        t = FramingTorsor(m)
        for x in range(m):
            for y in range(m):
                shifts = [k for k in range(m) if act(t, k, x) == y]
                assert len(shifts) == 1


def test_loop_delta():
    assert loop_delta([]) == 0
    assert loop_delta([2, -3, 4]) == 3
    rng = random.Random(99)
    for _ in range(50):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        assert loop_delta(a + b) == loop_delta(a) + loop_delta(b)


class TestExistence:
    def test_each_flag_suffices(self):
        r = relative_framing_exists(ManifoldDescriptor(euler_finite_order=True))
        assert (r.kind, r.reason) == (ExistenceKind.EXISTS, "euler-class-finite-order")
        r = relative_framing_exists(
            ManifoldDescriptor(closed_irreducible_atoroidal=True)
        )
        assert (r.kind, r.reason) == (
            ExistenceKind.EXISTS,
            "closed-irreducible-atoroidal",
        )
        r = relative_framing_exists(ManifoldDescriptor(tight_contact=True))
        assert (r.kind, r.reason) == (ExistenceKind.EXISTS, "tight-contact-structure")

    def test_all_eight_flag_combinations(self):
        for bits in range(8):
            desc = ManifoldDescriptor(
                euler_finite_order=bool(bits & 1),
                closed_irreducible_atoroidal=bool(bits & 2),
                tight_contact=bool(bits & 4),
                torus_pairings=(4, 6),
                pairings_exhaustive=True,
            )
            r = relative_framing_exists(desc)
            if bits:
                assert r.kind is ExistenceKind.EXISTS
            else:
                assert r.kind is ExistenceKind.MOD_ONLY
                assert r.modulus == 2

    def test_flag_priority_order(self):
        desc = ManifoldDescriptor(
            euler_finite_order=True,
            closed_irreducible_atoroidal=True,
            tight_contact=True,
        )
        assert relative_framing_exists(desc).reason == "euler-class-finite-order"

    def test_vanishing_m_t_needs_no_flags(self):
        # an empty pairing list already means m_T = 0
        r = relative_framing_exists(ManifoldDescriptor())
        assert (r.kind, r.reason) == (ExistenceKind.EXISTS, "m_T=0")
        r = relative_framing_exists(
            ManifoldDescriptor(torus_pairings=(0, 0), pairings_exhaustive=True)
        )
        assert (r.kind, r.reason) == (ExistenceKind.EXISTS, "m_T=0")

    def test_partial_pairings_settle_nothing(self):
        r = relative_framing_exists(ManifoldDescriptor(torus_pairings=(4, 6)))
        assert r.kind is ExistenceKind.UNKNOWN
        assert r.reason is None and r.modulus is None

    def test_exhaustive_pairings_give_modulus(self):
        r = relative_framing_exists(
            ManifoldDescriptor(torus_pairings=(3,), pairings_exhaustive=True)
        )
        assert (r.kind, r.modulus) == (ExistenceKind.MOD_ONLY, 3)


def test_transverse_components():
    plus, minus = transverse_components("figure-eight")
    assert plus == ComponentLabel("figure-eight", Coorientation.PLUS)
    assert minus == ComponentLabel("figure-eight", Coorientation.MINUS)


class TestRelativeBennequin:
    def test_offsets_self_linking(self):
        plus, minus = transverse_components("unknot")
        assert relative_bennequin(RelativeFraming(plus, 0), u_minus()) == -1
        assert relative_bennequin(RelativeFraming(plus, 5), u_minus()) == 4
        assert relative_bennequin(RelativeFraming(minus, 0), minus_unknot()) == -1

    def test_difference_is_constant(self):
        plus, _ = transverse_components("any")
        F1 = RelativeFraming(plus, 7)
        F2 = RelativeFraming(plus, -2)
        for seed in range(10):
            d = random_valid_diagram(seed)
            assert relative_bennequin(F1, d) - relative_bennequin(F2, d) == 9

    def test_stabilization_drops_by_two_per_loop(self):
        plus, _ = transverse_components("trefoil")
        F = RelativeFraming(plus, 3)
        d = trefoil_right()
        base = relative_bennequin(F, d)
        assert relative_bennequin(F, stabilize(d, 5, 2)) == base - 4

    def test_rejects_invalid_diagram(self):
        plus, _ = transverse_components("unknot")
        with pytest.raises(InvalidDiagramError):
            relative_bennequin(RelativeFraming(plus, 0), u_minus_forbidden())

    def test_rejects_wrong_component(self):
        _, minus = transverse_components("unknot")
        with pytest.raises(ComponentMismatchError, match="cooriented \\+"):
            relative_bennequin(RelativeFraming(minus, 0), u_minus())


class TestFramedClassesEqual:
    LABEL = ComponentLabel("unknot", Coorientation.PLUS)
    OTHER = ComponentLabel("trefoil", Coorientation.PLUS)

    def test_different_labels_unequal(self):
        desc = ManifoldDescriptor()
        assert (
            framed_classes_equal(desc, (self.LABEL, 0), (self.OTHER, 0))
            is Equality.UNEQUAL
        )

    def test_equal_offsets_equal(self):
        desc = ManifoldDescriptor(has_nonseparating_sphere=True)
        assert (
            framed_classes_equal(desc, (self.LABEL, 4), (self.LABEL, 4))
            is Equality.EQUAL
        )

    def test_offset_gap_without_sphere_unequal(self):
        desc = ManifoldDescriptor()
        assert (
            framed_classes_equal(desc, (self.LABEL, 0), (self.LABEL, -2))
            is Equality.UNEQUAL
        )

    def test_offset_gap_with_sphere_indeterminate(self):
        desc = ManifoldDescriptor(has_nonseparating_sphere=True)
        assert (
            framed_classes_equal(desc, (self.LABEL, 0), (self.LABEL, -2))
            is Equality.INDETERMINATE
        )


class TestDistinguish:
    TIGHT = ManifoldDescriptor(tight_contact=True)

    def test_requires_established_existence(self):
        # partial pairings leave existence unknown
        desc = ManifoldDescriptor(torus_pairings=(4, 6))
        with pytest.raises(PreconditionFailedError, match="not established"):
            distinguish_by_relative_framing(desc, True, 1)

    def test_single_stabilization_is_distinguished(self):
        r = distinguish_by_relative_framing(self.TIGHT, False, 1)
        assert r.distinguished
        assert r.torsor_line == "F(K1) = (-2)·F(K0)"

    def test_zero_stabilizations_change_nothing(self):
        r = distinguish_by_relative_framing(self.TIGHT, True, 0)
        assert not r.distinguished
        assert r.torsor_line == "F(K1) = (0)·F(K0)"

    def test_sphere_blocks_the_verdict_unless_zero_homologous(self):
        sphere = ManifoldDescriptor(tight_contact=True, has_nonseparating_sphere=True)
        assert not distinguish_by_relative_framing(sphere, False, 1).distinguished
        assert distinguish_by_relative_framing(sphere, True, 1).distinguished

    def test_shift_scales_with_count(self):
        r = distinguish_by_relative_framing(self.TIGHT, False, 3)
        assert r.torsor_line == "F(K1) = (-6)·F(K0)"

    def test_negative_count_is_refused(self):
        # only negative stabilizations are transverse; a negative count of
        # them names no knot, even where existence is not established
        for desc in (self.TIGHT, ManifoldDescriptor(torus_pairings=(4, 6))):
            with pytest.raises(ValueError, match="stabilization count must be nonnegative"):
                distinguish_by_relative_framing(desc, True, -3)
