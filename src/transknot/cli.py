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
from pathlib import Path
from typing import NamedTuple

from .diagram import (
    TransverseDiagram,
    min_feature_separation2,
    parse_diagram,
    serialize_diagram,
)
from .errors import InadmissibleDoublePointError, ParseError, TransknotError
from .invariants import invariant_values, pushoff_linking_oracle
from .transversality import validate

# The handlers that need `framing` or `moves_singular` import it
# themselves, so that a command loads only the modules it runs.

# Bounds on the work one command may ask for, checked before any of it
# is done: a stabilization allocates ten vertices per loop in one
# splice, and an order check evaluates 2**(order + 1) resolutions per
# sample, at most MAX_RESOLUTIONS over all its samples.
MAX_COUNT = 1000
MAX_ORDER = 8
MAX_RESOLUTIONS = 4096


class CommandOutcome(NamedTuple):
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


def _descriptor(args: argparse.Namespace, sphere: bool = False):
    from .framing import ManifoldDescriptor

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
    return [f"VIOLATION {v}" for v in violations]


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
    from .moves_singular import stabilize

    if args.count > MAX_COUNT:
        raise ValueError(f"--count must be at most {MAX_COUNT}")
    d = _load(args.file)
    out = stabilize(d, args.edge, args.count)
    Path(args.output).write_text(serialize_diagram(out), encoding="utf-8")
    return CommandOutcome(0, [])


def _cmd_resolve(args) -> CommandOutcome:
    from .moves_singular import make_singular, resolve

    d = _load(args.file)
    # argparse drops the value of `--assign=--` as its end-of-options
    # marker and stores an empty list
    assign = "--" if args.assign == [] else args.assign
    if any(ch not in "+-" for ch in assign):
        raise ValueError(f"--assign must be a string of + and -, got {assign!r}")
    if len(assign) != len(args.sites):
        raise ValueError("--assign length must match the number of sites")
    for k, i in enumerate(args.sites):
        if not 1 <= i <= len(d.entries):
            raise ValueError(f"--sites index {i} is not in 1..{len(d.entries)}")
        if i in args.sites[:k]:
            raise ValueError(f"--sites lists site {i} twice")
    zero_based = [i - 1 for i in args.sites]
    try:
        s = make_singular(d, zero_based)
    except InadmissibleDoublePointError as e:
        raise ValueError(f"--sites index {e.site + 1} has a forced over bit") from None
    out = resolve(s, {i: 1 if ch == "+" else -1 for i, ch in zip(zero_based, assign)})
    Path(args.output).write_text(serialize_diagram(out), encoding="utf-8")
    return CommandOutcome(0, [])


def _cmd_order_check(args) -> CommandOutcome:
    from .moves_singular import (
        FRAMING_PROJECTION,
        V2_INVARIANT,
        WRITHE_INVARIANT,
        is_order_at_most,
        pullback_framed_invariant,
        singular_family,
    )

    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    if args.order > MAX_ORDER:
        raise ValueError(f"--order must be at most {MAX_ORDER}")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.samples * 2 ** (args.order + 1) > MAX_RESOLUTIONS:
        raise ValueError(f"--samples times 2**(order + 1) must be at most {MAX_RESOLUTIONS}")
    handle = {
        "writhe": WRITHE_INVARIANT,
        "v2": V2_INVARIANT,
        "sl-pullback": pullback_framed_invariant(FRAMING_PROJECTION),
    }[args.invariant]
    family = singular_family(args.seed, args.order + 1, args.samples)
    result = is_order_at_most(handle, args.order, family)
    lines = [f"defect={r.defect}" for r in result.reports]
    return CommandOutcome(0 if result.holds else 1, lines)


def _cmd_mtor(args) -> CommandOutcome:
    from .framing import compute_m_T

    return CommandOutcome(0, [f"m={compute_m_T(args.pairings)}"])


def _cmd_exists(args) -> CommandOutcome:
    from .framing import ExistenceKind, relative_framing_exists

    r = relative_framing_exists(_descriptor(args))
    if r.kind is ExistenceKind.EXISTS:
        return CommandOutcome(0, [f"EXISTS {r.reason}"])
    if r.kind is ExistenceKind.MOD_ONLY:
        return CommandOutcome(0, [f"MOD {r.modulus}"])
    return CommandOutcome(0, ["UNKNOWN"])


def _cmd_distinguish(args) -> CommandOutcome:
    from .framing import distinguish_by_relative_framing

    desc = _descriptor(args, sphere=args.sphere)
    r = distinguish_by_relative_framing(desc, args.zero_homologous, args.stabilizations)
    verdict = "DISTINGUISHED" if r.distinguished else "INCONCLUSIVE"
    return CommandOutcome(0 if r.distinguished else 1, [verdict, r.torsor_line])


def render_svg(d: TransverseDiagram) -> str:
    """Deterministic SVG picture of a diagram.

    The curve is drawn edge by edge as polylines; wherever an edge
    passes under a crossing it is broken, which is what makes the over
    strand read as continuous.  z points up, so SVG y is -z.  The
    stroke is half of gap = sep/10 wide, sep the minimum feature
    separation, but never narrower than a thousandth of the larger side
    of the picture, so that a deeply stabilized front, whose features
    lie far closer than its size, still shows.

    Each break is sized by its own room: half the distance along the
    under edge to the neighbouring crossing on either side, or to the
    edge's end, read from the exact fractions of ``fractions_along``,
    in the order of ``crossings_along``; the over bits of the entries
    tell which edge passes under, and no crossing point is built.  It
    runs max(gap, 2 * stroke) to each side of the crossing, capped at
    the room, so it clears the round caps of the stroke wherever there
    is room for that; where the room is below the stroke the break
    keeps the radius gap, which every room exceeds.

    The picture is drawn in floats from the curve's ints: with the
    scale L of ``PolyCurve.scaled``, a vertex is x / L and z / L and
    edge i's int direction (ex, ez) gives ex / L, ez / L and the
    squared length (ex**2 + ez**2) / L**2.  Int true division rounds
    correctly, as ``float(Fraction)`` does, so no vertex or direction
    is built as a Fraction.  A diagram that floats cannot draw is
    refused first, exactly, with TransknotError: one with a coordinate
    of absolute value 2**510 or more, |X| >= L * 2**510 on the ints,
    or with two features closer than 2**-511.  Below those bounds every
    coordinate, squared edge length and squared separation is a normal
    float, and no conversion overflows and no length is 0.
    """
    sep2 = min_feature_separation2(d)
    scale, pts = d.curve.scaled
    if sep2 * 2**1022 < 1 or any(abs(c) >= scale << 510 for p in pts for c in p):
        raise TransknotError("coordinates from 2**510 or features within 2**-511 leave float range")
    sep = math.sqrt(float(sep2))
    gap = sep / 10

    xs = [x / scale for x, _ in pts]
    zs = [z / scale for _, z in pts]
    min_x, max_x = min(xs) - sep, max(xs) + sep
    min_y, max_y = -max(zs) - sep, -min(zs) + sep
    width = max_x - min_x
    height = max_y - min_y
    stroke = max(gap / 2, width / 1000, height / 1000)

    pieces = []
    for i, (x, z, (ex, ez), along) in enumerate(
            zip(xs, zs, d.curve.int_directions, d.crossings_along), start=1):
        length = math.sqrt((ex * ex + ez * ez) / (scale * scale))
        ts = [0, *d.fractions_along(i), 1]
        spans = []
        start = 0.0
        for j, k in enumerate(along, start=1):
            if (d.entries[k][0] == i) == (d.overs[k] == "lo"):
                continue  # edge i passes over
            room = float(min(ts[j] - ts[j - 1], ts[j + 1] - ts[j]) / 2) * length
            dt = (min(max(gap, 2 * stroke), room) if room >= stroke else gap) / length
            t = float(ts[j])
            spans.append((start, t - dt))
            start = t + dt
        spans.append((start, 1.0))
        dx, dz = ex / scale, ez / scale
        for t0, t1 in spans:
            pieces.append(f'<polyline points="{x + t0 * dx:.6f},{-(z + t0 * dz):.6f} '
                          f'{x + t1 * dx:.6f},{-(z + t1 * dz):.6f}"/>')

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min_x:.6f} {min_y:.6f} {width:.6f} {height:.6f}">',
        f'<g fill="none" stroke="black" stroke-width="{stroke:.6f}" stroke-linecap="round">',
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
    as exit 1 with a diagnostic line.  Any other exception is a fault
    of the program, and ends in exit 1 with one ``error:`` line naming
    its type, never a traceback.
    """
    argv = list(argv)
    # argparse takes a separate value starting with "-", such as "-+" or
    # "--" after --assign and "-4,6" after --pairings, for an option;
    # attached with "=" it is a value
    for option, is_value in (("--assign", lambda v: v and not v.strip("+-")),
                             ("--pairings", lambda v: v[:1] == "-" and v[1:2].isdigit())):
        if option in argv:
            i = argv.index(option)
            if i + 1 < len(argv) and is_value(argv[i + 1]):
                argv[i:i + 2] = [f"{option}={argv[i + 1]}"]
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
    except Exception as e:
        return CommandOutcome(1, [f"error: {type(e).__name__}: {e}"])


def main() -> None:
    outcome = dispatch(sys.argv[1:])
    for line in outcome.stdout_lines:
        print(line)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
