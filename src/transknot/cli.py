"""Batch command-line front end.

Every subcommand reads files and flags, prints line-oriented
``key=value`` output, and exits 0 on success, 1 on a domain negative
(invalid diagram, failed check), or 2 on a usage error.  Output is
deterministic: identical argv and file contents give byte-identical
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .diagram import (
    TransverseDiagram,
    min_feature_separation2,
    parse_diagram,
    serialize_diagram,
)
from .errors import ParseError, TransknotError
from .framing import (
    ExistenceKind,
    ManifoldDescriptor,
    compute_m_T,
    distinguish_by_relative_framing,
    relative_framing_exists,
)
from .geometry import dot, vec
from .invariants import invariant_values, pushoff_linking_oracle
from .moves_singular import (
    FRAMING_PROJECTION,
    Resolution,
    ResolutionAssignment,
    V2_INVARIANT,
    WRITHE_INVARIANT,
    make_singular,
    pullback_framed_invariant,
    resolve,
    singular_family,
    stabilize,
    vassiliev_defect,
)
from .transversality import validate


@dataclass
class CommandOutcome:
    exit_code: int
    stdout_lines: list[str]


def _bool01(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _descriptor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--euler-finite", type=_bool01, default=False,
                   help="Euler class has finite order (0|1)")
    p.add_argument("--atoroidal", type=_bool01, default=False,
                   help="manifold is closed irreducible atoroidal (0|1)")
    p.add_argument("--tight", type=_bool01, default=False,
                   help="coorienting structure is tight contact (0|1)")
    p.add_argument("--pairings", type=_int_list, default=[],
                   help="torus pairing values, comma separated")
    p.add_argument("--exhaustive", action="store_true",
                   help="declare the pairing family exhaustive")


def _descriptor(args: argparse.Namespace, sphere: bool = False) -> ManifoldDescriptor:
    return ManifoldDescriptor(
        euler_finite_order=args.euler_finite,
        closed_irreducible_atoroidal=args.atoroidal,
        tight_contact=args.tight,
        has_nonseparating_sphere=sphere,
        torus_pairings=tuple(args.pairings),
        pairings_exhaustive=args.exhaustive,
    )


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="transknot",
        description="Transverse knot diagrams: validation, invariants, moves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("file")

    p = sub.add_parser("invariants", help="print invariant values")
    p.add_argument("file")

    p = sub.add_parser("oracle-sl", help="self-linking via push-off oracle")
    p.add_argument("file")

    p = sub.add_parser("stabilize", help="splice negative double loops")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True, help="host edge index")
    p.add_argument("--count", type=int, required=True, help="number of loops")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("resolve", help="erase and re-resolve crossings")
    p.add_argument("file")
    p.add_argument("--sites", type=_int_list, required=True,
                   help="1-based crossing indices, comma separated")
    p.add_argument("--assign", required=True,
                   help="one + or - per site, in the listed order")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("order-check", help="Vassiliev order evidence")
    p.add_argument("--invariant", choices=("writhe", "v2", "sl-pullback"),
                   required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("mtor", help="gcd of torus pairings")
    p.add_argument("--pairings", type=_int_list, default=[])

    p = sub.add_parser("exists", help="relative framing existence")
    _descriptor_flags(p)

    p = sub.add_parser("distinguish", help="stabilization distinguishing verdict")
    _descriptor_flags(p)
    p.add_argument("--sphere", type=_bool01, default=False,
                   help="manifold contains a nonseparating sphere (0|1)")
    p.add_argument("--zero-homologous", type=_bool01, default=False,
                   help="base knot is zero-homologous (0|1)")
    p.add_argument("--stabilizations", type=int, required=True)

    p = sub.add_parser("render", help="write an SVG picture")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    return top


def _load(path: str) -> TransverseDiagram:
    return parse_diagram(Path(path).read_text(encoding="utf-8"))


def _violation_lines(violations) -> list[str]:
    return [f"VIOLATION {v.kind.name} {v.location_str()}" for v in violations]


def _cmd_validate(args) -> CommandOutcome:
    try:
        d = _load(args.file)
    except ParseError as e:
        if e.violations:
            return CommandOutcome(1, _violation_lines(e.violations))
        return CommandOutcome(1, [f"error: {e}"])
    report = validate(d)
    if report.is_valid:
        return CommandOutcome(0, [])
    return CommandOutcome(1, _violation_lines(report.violations))


def _cmd_invariants(args) -> CommandOutcome:
    d = _load(args.file)
    report = validate(d)
    if not report.is_valid:
        return CommandOutcome(1, _violation_lines(report.violations))
    return CommandOutcome(0, [f"{iv.name}={iv.value}" for iv in invariant_values(d)])


def _cmd_oracle_sl(args) -> CommandOutcome:
    d = _load(args.file)
    return CommandOutcome(0, [f"oracle_sl={pushoff_linking_oracle(d)}"])


def _cmd_stabilize(args) -> CommandOutcome:
    d = _load(args.file)
    out = stabilize(d, args.edge, args.count)
    Path(args.output).write_text(serialize_diagram(out), encoding="utf-8")
    return CommandOutcome(0, [])


def _cmd_resolve(args) -> CommandOutcome:
    d = _load(args.file)
    # argparse drops the value of `--assign=--` as its end-of-options
    # marker and stores an empty list
    assign = "--" if args.assign == [] else args.assign
    if any(ch not in "+-" for ch in assign):
        raise ValueError(f"--assign must be a string of + and -, got {assign!r}")
    if len(assign) != len(args.sites):
        raise ValueError("--assign length must match the number of sites")
    if any(i < 1 for i in args.sites):
        raise ValueError("--sites indices are 1-based")
    zero_based = [i - 1 for i in args.sites]
    s = make_singular(d, zero_based)
    choices = {
        idx: Resolution.POS if ch == "+" else Resolution.NEG
        for idx, ch in zip(zero_based, assign)
    }
    out = resolve(s, ResolutionAssignment(choices))
    Path(args.output).write_text(serialize_diagram(out), encoding="utf-8")
    return CommandOutcome(0, [])


_INVARIANT_HANDLES = {
    "writhe": WRITHE_INVARIANT,
    "v2": V2_INVARIANT,
}


def _cmd_order_check(args) -> CommandOutcome:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    handle = _INVARIANT_HANDLES.get(args.invariant)
    if handle is None:
        handle = pullback_framed_invariant(FRAMING_PROJECTION)
    family = singular_family(args.seed, args.order + 1, args.samples)
    lines = []
    all_zero = True
    for s in family:
        r = vassiliev_defect(handle, s)
        lines.append(f"defect={r.defect}")
        all_zero = all_zero and r.defect == 0
    return CommandOutcome(0 if all_zero else 1, lines)


def _cmd_mtor(args) -> CommandOutcome:
    return CommandOutcome(0, [f"m={compute_m_T(args.pairings)}"])


def _cmd_exists(args) -> CommandOutcome:
    r = relative_framing_exists(_descriptor(args))
    if r.kind is ExistenceKind.EXISTS:
        return CommandOutcome(0, [f"EXISTS {r.reason}"])
    if r.kind is ExistenceKind.MOD_ONLY:
        return CommandOutcome(0, [f"MOD {r.modulus}"])
    return CommandOutcome(0, ["UNKNOWN"])


def _cmd_distinguish(args) -> CommandOutcome:
    desc = _descriptor(args, sphere=args.sphere)
    r = distinguish_by_relative_framing(desc, args.zero_homologous, args.stabilizations)
    verdict = "DISTINGUISHED" if r.distinguished else "INCONCLUSIVE"
    return CommandOutcome(0 if r.distinguished else 1, [verdict, r.torsor_line])


def render_svg(d: TransverseDiagram) -> str:
    """Deterministic SVG picture of a diagram.

    The curve is drawn edge by edge as polylines; wherever an edge
    passes under a crossing it is broken with a gap of radius one tenth
    of the minimum feature separation, which is what makes the over
    strand read as continuous.  z points up, so SVG y is -z.
    """
    sep = math.sqrt(float(min_feature_separation2(d)))
    gap = sep / 10

    xs = [float(p.x) for p in d.curve.vertices]
    zs = [float(p.z) for p in d.curve.vertices]
    margin = sep
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = -max(zs) - margin, -min(zs) + margin

    under_at: dict[int, list] = {}
    for c in d.crossings:
        under_at.setdefault(c.under_edge, []).append(c.point)

    pieces = []
    for i, a, b in d.curve.edges():
        direction = vec(a, b)
        length = math.sqrt(float(dot(direction, direction)))
        cuts = sorted(
            float(dot(vec(a, p), direction) / dot(direction, direction))
            for p in under_at.get(i, [])
        )
        dt = gap / length
        spans = []
        start = 0.0
        for t in cuts:
            spans.append((start, t - dt))
            start = t + dt
        spans.append((start, 1.0))
        for t0, t1 in spans:
            p0 = (float(a.x) + t0 * float(direction.x), float(a.z) + t0 * float(direction.z))
            p1 = (float(a.x) + t1 * float(direction.x), float(a.z) + t1 * float(direction.z))
            pieces.append(
                f'<polyline points="{p0[0]:.6f},{-p0[1]:.6f} {p1[0]:.6f},{-p1[1]:.6f}"/>'
            )

    width = max_x - min_x
    height = max_y - min_y
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min_x:.6f} {min_y:.6f} {width:.6f} {height:.6f}">',
        f'<g fill="none" stroke="black" stroke-width="{gap / 2:.6f}" '
        f'stroke-linecap="round">',
        *pieces,
        "</g>",
        "</svg>",
    ]
    return "\n".join(out) + "\n"


def _cmd_render(args) -> CommandOutcome:
    d = _load(args.file)
    Path(args.output).write_text(render_svg(d), encoding="utf-8")
    return CommandOutcome(0, [])


_HANDLERS = {
    "validate": _cmd_validate,
    "invariants": _cmd_invariants,
    "oracle-sl": _cmd_oracle_sl,
    "stabilize": _cmd_stabilize,
    "resolve": _cmd_resolve,
    "order-check": _cmd_order_check,
    "mtor": _cmd_mtor,
    "exists": _cmd_exists,
    "distinguish": _cmd_distinguish,
    "render": _cmd_render,
}


def dispatch(argv: list[str]) -> CommandOutcome:
    """Run one command; returns the exit code and stdout lines.

    Argument errors surface as exit 2 with the usage text; domain
    errors (unreadable or bad files, invalid diagrams, failed checks)
    as exit 1 with a diagnostic line.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(buf):
            args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return CommandOutcome(code, buf.getvalue().splitlines())
    try:
        return _HANDLERS[args.command](args)
    except (TransknotError, ValueError, OSError) as e:
        return CommandOutcome(1, [f"error: {e}"])


def main() -> None:
    outcome = dispatch(sys.argv[1:])
    for line in outcome.stdout_lines:
        print(line)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
