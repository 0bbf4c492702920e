"""Exact-arithmetic transverse knot diagrams.

Closed polygonal curves in the (x, z) plane with rational vertices,
a coorientation sign, and over/under data at crossings; validity of
the transversality conditions, classical invariants (self-linking
number, Whitney index, a second-order Vassiliev invariant), negative
stabilization, singular diagrams with a Vassiliev order checker, and
the relative-framing torsor arithmetic that turns self-linking into a
Bennequin invariant on general manifolds.

The names below are exported lazily (PEP 562): ``import transknot``
loads no submodule, and each name imports its module on first use, so
a command pays only for the modules it runs.
"""

import importlib

# The exported names, by the submodule that defines them.
_EXPORTS = {
    "diagram": (
        "Coorientation",
        "Crossing",
        "PolyCurve",
        "TransverseDiagram",
        "Violation",
        "ViolationKind",
        "build_diagram",
        "check_genericity",
        "detect_crossings",
        "min_feature_separation2",
        "parse_diagram",
        "serialize_diagram",
    ),
    "errors": (
        "ComponentMismatchError",
        "CrossingMismatchError",
        "DegenerateConeError",
        "FamilyArityError",
        "HostTooShortError",
        "InadmissibleDoublePointError",
        "InvalidDiagramError",
        "NongenericCurveError",
        "ParseError",
        "PreconditionFailedError",
        "ReversalError",
        "TransknotError",
    ),
    "framing": (
        "ComponentLabel",
        "Equality",
        "ExistenceKind",
        "ExistenceResult",
        "FramingTorsor",
        "ManifoldDescriptor",
        "RelativeFraming",
        "act",
        "compute_m_T",
        "distinguish_by_relative_framing",
        "framed_classes_equal",
        "loop_delta",
        "relative_bennequin",
        "relative_framing_exists",
        "transverse_components",
    ),
    "geometry": ("Point", "Vec"),
    "invariants": (
        "InvariantValue",
        "crossing_sign",
        "invariant_values",
        "pushoff_linking_oracle",
        "self_linking",
        "v2",
        "writhe",
    ),
    "moves_singular": (
        "FramedInvariantHandle",
        "InvariantHandle",
        "SingularDiagram",
        "is_order_at_most",
        "make_singular",
        "pullback_framed_invariant",
        "random_valid_diagram",
        "resolve",
        "singular_family",
        "stabilize",
        "vassiliev_defect",
    ),
    "transversality": ("ValidityReport", "validate", "whitney_index"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "fixtures")

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
