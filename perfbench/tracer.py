"""Per-layer tracing of the transknot package, installed from outside.

The package's modules import each other's functions by name, so a
function is wrapped in every ``transknot.*`` namespace that binds it;
invariant handles that captured a function object at import time are
rebuilt around the wrapper.  Timed wrappers record spans (name, start,
end, parent, op id) in memory; geometry predicates get count-only
wrappers, so their time falls into the caller's self time.  Nothing in
the package itself is edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time

TIMED = {
    "diagram": (
        "parse_diagram",
        "serialize_diagram",
        "detect_crossings",
        "check_genericity",
        "min_feature_separation2",
    ),
    "transversality": ("validate", "check_condition1", "check_condition2", "whitney_index"),
    "invariants": ("writhe", "self_linking", "v2", "pushoff_linking_oracle"),
    "moves_singular": (
        "stabilize",
        "random_valid_diagram",
        "singular_family",
        "make_singular",
        "resolve",
        "vassiliev_defect",
    ),
    "cli": ("dispatch",),
}
COUNTED = {
    "geometry": (
        "segment_intersection",
        "point_in_open_segment",
        "in_open_cone",
        "in_closed_cone",
        "point_segment_dist2",
    ),
}
# Functions whose first argument is a curve, or a diagram carrying one.
CURVE_ARG = {"diagram.detect_crossings", "diagram.check_genericity", "transversality.validate"}


def coord_bits(d) -> int:
    """Largest numerator or denominator bit length among the vertices."""
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for p in d.curve.vertices
        for c in p
    )


def empty_summary() -> dict:
    return {
        "calls": {},
        "self_s": {},
        "curves": {},
        "hits": {},
        "max_coord_bits": {},
        "resolutions": {},
    }


def merge(into: dict, other: dict) -> None:
    """Add one summary into another (the curve sets are unioned)."""
    for stat in ("calls", "self_s", "hits", "resolutions"):
        for name, v in other[stat].items():
            into[stat][name] = into[stat].get(name, 0) + v
    for name, v in other["max_coord_bits"].items():
        into["max_coord_bits"][name] = max(into["max_coord_bits"].get(name, 0), v)
    for name, hashes in other["curves"].items():
        into["curves"].setdefault(name, set()).update(hashes)


def layer_value(summary: dict, metric: str):
    """Value of a ``<module>.<function>.<stat>`` metric; 0 when unused."""
    fn, stat = metric.rsplit(".", 1)
    if stat == "distinct_curves":
        return len(summary["curves"].get(fn, ()))
    return summary[stat].get(fn, 0)


class Tracer:
    """Spans and counters for one traced run.

    ``active(op_id)`` installs the wrappers for the duration of one op
    and removes them afterwards, so correctness checks and untraced
    timing never pass through them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        # Totals reported by traced child processes, and metrics that
        # are not per-function stats (such as cli.process_s).
        self.extra = empty_summary()
        self.values: dict[str, float] = {"cli.process_s": 0.0, "cli.import_s": 0.0}
        self._counts: dict[str, int] = {}
        self._hits: dict[str, int] = {}
        self._curves: dict[str, set[int]] = {}
        self._bits: dict[str, int] = {}
        self._resolutions: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts = self._counts
        curve_hashes = self._curves.setdefault(name, set()) if name in CURVE_ARG else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if curve_hashes is not None:
                arg = args[0]
                curve_hashes.add(hash(getattr(arg, "curve", arg)))
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self._op))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "moves_singular.stabilize":
            self._bits[name] = max(self._bits.get(name, 0), coord_bits(result))
        elif name == "moves_singular.vassiliev_defect":
            self._resolutions[name] = (
                self._resolutions.get(name, 0) + result.resolutions_evaluated
            )

    def _counted(self, name: str, fn):
        counts, hits = self._counts, self._hits
        track_hits = name == "geometry.segment_intersection"

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args)
            if track_hits and result is not None:
                hits[name] = hits.get(name, 0) + 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _wrappers(self) -> dict[int, object]:
        """Map id(original function) -> wrapper for every traced function."""
        out = {}
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, names in table.items():
                mod = sys.modules.get(f"transknot.{module}")
                if mod is None:
                    continue
                for fname in names:
                    fn = getattr(mod, fname)
                    out[id(fn)] = (fn, make(f"{module}.{fname}", fn))
        return out

    @contextlib.contextmanager
    def active(self, op_id: int):
        from transknot.moves_singular import InvariantHandle

        wrappers = self._wrappers()

        def rewrap(value):
            if isinstance(value, InvariantHandle) and id(value.fn) in wrappers:
                return dataclasses.replace(value, fn=wrappers[id(value.fn)][1])
            if isinstance(value, dict) and any(
                isinstance(v, InvariantHandle) for v in value.values()
            ):
                return {k: rewrap(v) for k, v in value.items()}
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                return wrappers[id(value)][1]
            return value

        saved = []
        for modname, mod in list(sys.modules.items()):
            if modname != "transknot" and not modname.startswith("transknot."):
                continue
            for attr, value in list(vars(mod).items()):
                new = rewrap(value)
                if new is not value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, new)
        self._op = op_id
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def add_child(self, child: dict, wall: float) -> None:
        """Fold in one traced child process and its parent-measured time."""
        merge(self.extra, child["summary"])
        self.values["cli.import_s"] += child["import_s"]
        self.values["cli.process_s"] += wall

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all recorded spans and counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        out = {
            "calls": dict(self._counts),
            "self_s": self_s,
            "curves": {k: set(v) for k, v in self._curves.items()},
            "hits": dict(self._hits),
            "max_coord_bits": dict(self._bits),
            "resolutions": dict(self._resolutions),
        }
        merge(out, self.extra)
        return out


def to_json(summary: dict) -> dict:
    return {**summary, "curves": {k: sorted(v) for k, v in summary["curves"].items()}}
