"""The package loads only what is used: checked in fresh interpreters.

``import transknot`` binds its exports lazily, and each `transknot`
command imports only the modules it runs.  Every check starts a new
process, because the test process has long since imported everything.
`random` and `pathlib` are not checked: the interpreter's `site`
start-up already imports them.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transknot
from transknot.diagram import serialize_diagram
from transknot.fixtures import u_minus

SRC = str(Path(transknot.__file__).resolve().parents[1])

# Every name `transknot` exported when its `__init__` imported all of
# its modules, by the module that defines it, less `OracleError`, which
# nothing raised and which is gone, and less `Double` and `Resolved`,
# the sites a singular diagram no longer keeps: it is its host diagram
# and the indices of its double points.
EXPORTED = {
    "diagram": (
        "Coorientation", "Crossing", "PolyCurve", "TransverseDiagram", "Violation",
        "ViolationKind", "build_diagram", "check_genericity", "detect_crossings",
        "min_feature_separation2", "parse_diagram", "serialize_diagram",
    ),
    "errors": (
        "ComponentMismatchError", "CrossingMismatchError", "DegenerateConeError",
        "FamilyArityError", "HostTooShortError", "InadmissibleDoublePointError",
        "InvalidDiagramError", "NongenericCurveError", "ParseError",
        "PreconditionFailedError", "ReversalError", "TransknotError",
    ),
    "framing": (
        "ComponentLabel", "Equality", "ExistenceKind", "ExistenceResult", "FramingTorsor",
        "ManifoldDescriptor", "RelativeFraming", "act", "compute_m_T",
        "distinguish_by_relative_framing", "framed_classes_equal", "loop_delta",
        "relative_bennequin", "relative_framing_exists", "transverse_components",
    ),
    "geometry": ("Point", "Vec"),
    "invariants": (
        "InvariantValue", "crossing_sign", "invariant_values", "pushoff_linking_oracle",
        "self_linking", "v2", "writhe",
    ),
    "moves_singular": (
        "FramedInvariantHandle", "InvariantHandle", "SingularDiagram", "is_order_at_most",
        "make_singular", "pullback_framed_invariant", "random_valid_diagram", "resolve",
        "singular_family", "stabilize", "vassiliev_defect",
    ),
    "transversality": ("ValidityReport", "validate", "whitney_index"),
}


def loaded_after(code: str) -> set[str]:
    """The modules in ``sys.modules`` after ``code`` runs in a new
    interpreter with the package on its path."""
    script = f"import sys\n{code}\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=60)
    return set(proc.stdout.split())


def after_dispatch(argv: list[str]) -> set[str]:
    return loaded_after(f"from transknot.cli import dispatch\n"
                        f"assert dispatch({argv!r}).exit_code == 0")


def test_import_alone_loads_no_submodule():
    assert {m for m in loaded_after("import transknot") if m.startswith("transknot.")} == set()


def test_validate_loads_neither_framing_nor_moves_singular(tmp_path):
    path = tmp_path / "u_minus.td"
    path.write_text(serialize_diagram(u_minus()), encoding="utf-8")
    loaded = after_dispatch(["validate", str(path)])
    assert "transknot.transversality" in loaded
    assert loaded.isdisjoint({"transknot.framing", "transknot.moves_singular", "dataclasses"})


def test_mtor_loads_framing_but_not_moves_singular():
    loaded = after_dispatch(["mtor", "--pairings", "4,6"])
    assert "transknot.framing" in loaded
    assert "transknot.moves_singular" not in loaded


def test_every_old_export_is_the_defining_object():
    names = sorted(name for names in EXPORTED.values() for name in names)
    assert sorted(transknot.__all__) == names
    assert set(names) <= set(dir(transknot))
    assert [name for module, names in sorted(EXPORTED.items()) for name in names
            if getattr(transknot, name)
            is not getattr(importlib.import_module(f"transknot.{module}"), name)] == []


def test_submodules_are_attributes():
    # perfbench/workloads.py reads `tk.moves_singular` off the package
    loaded = loaded_after("import transknot\n"
                          "assert transknot.moves_singular.stabilize is transknot.stabilize")
    assert "transknot.moves_singular" in loaded
    # `fixtures` is no export's module, so only the package's own list of
    # submodules makes it an attribute
    loaded = loaded_after("import transknot\n"
                          "assert transknot.fixtures.u_minus().curve.n == 10")
    assert "transknot.fixtures" in loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(transknot, "no_such_name")
