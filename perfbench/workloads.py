"""The benchmark's four workloads: their frozen inputs, ops and checks.

A workload hands out its ops in rounds.  Every round holds the same mix
of op kinds, so a run that completes whole rounds measures the same mix
whatever the seed; the seed only picks the order within a round, the
host edges, the counts and the family seeds.  Each op carries the
values a correct program must produce, and its check compares them
outside the timed region.  Every expected value follows from the
mathematics (or, for the random stabilization hosts, was recorded when
the inputs were frozen), never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class SetupError(Exception):
    """The benchmark cannot run in this checkout."""


class CheckFailed(Exception):
    """An op's output differs from its expected value."""


@dataclass
class Op:
    label: str
    run: Callable[[object], object]  # takes the Tracer, or None when untraced
    expected: dict
    check: Callable[[object, dict], None]


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def child_env(**extra: str) -> dict[str, str]:
    """Environment for the benchmark's child processes.

    Bytecode caching is switched back on whatever the caller chose, so a
    child loads transknot from cached bytecode, as an installed copy
    does, instead of compiling it on every start.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(extra)
    return env


def import_program(root: Path):
    """Import transknot from the checkout's own ``src``, nowhere else."""
    src = root / "src"
    if not (src / "transknot" / "__init__.py").is_file():
        raise SetupError(f"no transknot package under {src}")
    sys.path.insert(0, str(src))
    import transknot

    if Path(transknot.__file__).resolve().parent != (src / "transknot").resolve():
        raise SetupError(f"imported transknot from {transknot.__file__}, not from {src}")
    return transknot


class Inputs:
    """The frozen input files, checked against MANIFEST.json on load."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        manifest = json.loads((directory / "MANIFEST.json").read_text(encoding="utf-8"))
        self.texts: dict[str, str] = {}
        for rel, digest in manifest["files"].items():
            data = (directory / rel).read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                raise SetupError(f"frozen input {rel} does not match its manifest digest")
            self.texts[rel] = data.decode("utf-8")
        self.hosts: dict[str, dict[str, int]] = manifest["hosts"]

    def path(self, rel: str) -> Path:
        return self.directory / rel


# Invariants of the named fixtures, as stated in transknot.fixtures:
# writhe = sl for these diagrams, and the Whitney index of a valid
# diagram is 0.
FIXTURE_FACTS = {
    "hosts/trefoil_right.td": {"writhe": 1, "sl": 1, "whitney": 0, "crossings": 7, "v2": 1},
    "hosts/trefoil_left.td": {"writhe": -5, "sl": -5, "whitney": 0, "crossings": 7, "v2": 1},
    "cli/u_minus.td": {"writhe": -1, "sl": -1, "whitney": 0, "crossings": 1, "v2": 0},
    "cli/minus_unknot.td": {"writhe": -1, "sl": -1, "whitney": 0, "crossings": 1, "v2": 0},
}


def diagram_facts(tk, text: str) -> dict:
    """Validity and invariants of a serialized diagram that a move must
    preserve or shift by a known amount."""
    d = tk.parse_diagram(text)
    return {
        "valid": tk.validate(d).is_valid,
        "crossings": len(d.crossings),
        "writhe": tk.writhe(d),
        "v2": tk.v2(d),
        "whitney": tk.whitney_index(d.curve),
    }


def check_fields(out: dict, expected: dict) -> None:
    for key, want in expected.items():
        expect(key, out.get(key), want)


class Workload:
    name = ""

    def __init__(self, tk, inputs: Inputs, seed: int, root: Path) -> None:
        self.tk = tk
        self.inputs = inputs
        self.seed = seed
        self.root = root

    def rng(self, tag: object) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> Op:
        """An op run once during set-up and never timed."""
        raise NotImplementedError


class LadderAnalyze(Workload):
    """Read path: parse, validate, invariants, oracle, serialize."""

    name = "ladder-analyze"
    KS = (0, 2, 4, 8)

    def op(self, k: int) -> Op:
        text = self.inputs.texts[f"ladder/trefoil_right-e1-k{k}.td"]
        tk = self.tk

        def run(_tracer):
            d = tk.parse_diagram(text)
            out = {"valid": tk.validate(d).is_valid}
            out.update((iv.name, iv.value) for iv in tk.invariant_values(d))
            out["oracle"] = tk.pushoff_linking_oracle(d)
            out["text"] = tk.serialize_diagram(d)
            return out

        # Each stabilization adds two crossings of sign -1 to the right
        # trefoil (writhe 1, v2 1) and leaves v2 and the Whitney index alone.
        sl = 1 - 2 * k
        expected = {
            "valid": True, "writhe": sl, "sl": sl, "oracle": sl, "whitney": 0,
            "crossings": 7 + 2 * k, "v2": 1, "text": text,
        }
        return Op(f"analyze k={k}", run, expected, check_fields)

    def round(self, r: int) -> list[Op]:
        ks = list(self.KS)
        self.rng(r).shuffle(ks)
        return [self.op(k) for k in ks]

    def warm_up(self) -> Op:
        return self.op(0)


class LadderStabilize(Workload):
    """Write path: stabilize a frozen host, then serialize."""

    name = "ladder-stabilize"
    HOSTS = ("trefoil_right", "random-plus-1", "random-minus-2")
    KS = (1, 2, 4, 8)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.hosts = {
            h: self.tk.parse_diagram(self.inputs.texts[f"hosts/{h}.td"]) for h in self.HOSTS
        }
        # Round r stabilizes on the r-th edge of a seeded permutation, so
        # no (host, edge, count) repeats until a host runs out of edges.
        self.edges = {}
        for h, d in self.hosts.items():
            for k in self.KS:
                perm = list(range(1, d.curve.n + 1))
                self.rng(f"{h}/{k}").shuffle(perm)
                self.edges[h, k] = perm

    def op(self, host: str, edge: int, k: int) -> Op:
        tk, d = self.tk, self.hosts[host]

        def run(_tracer):
            return tk.serialize_diagram(tk.stabilize(d, edge, k))

        def check(text, expected):
            check_fields(diagram_facts(tk, text), expected)

        facts = self.inputs.hosts[f"hosts/{host}.td"]
        expected = {
            "valid": True,
            "crossings": facts["crossings"] + 2 * k,
            "writhe": facts["writhe"] - 2 * k,
            "v2": facts["v2"],
            "whitney": 0,
        }
        return Op(f"stabilize {host} e{edge} k={k}", run, expected, check)

    def round(self, r: int) -> list[Op]:
        ops = []
        for h in self.HOSTS:
            for k in self.KS:
                perm = self.edges[h, k]
                ops.append(self.op(h, perm[r % len(perm)], k))
        self.rng(r).shuffle(ops)
        return ops

    def warm_up(self) -> Op:
        return self.op("random-plus-1", 1, 1)


class OrderCheck(Workload):
    """Reuse-heavy load: order checks on seeded singular families."""

    name = "order-check"
    # Claimed Vassiliev orders; a check at order n holds iff n >= claim.
    CLAIMED = {"writhe": 1, "v2": 2, "sl-pullback": 1}
    # Order 3 is left out: one sl-pullback order-3 check takes about 5 s,
    # half of a round, and its cost swings with the random family member,
    # so runs of whole rounds could not be measured steadily with it.
    ORDERS = (1, 2)

    def handle(self, invariant: str):
        ms = self.tk.moves_singular
        if invariant == "writhe":
            return ms.WRITHE_INVARIANT
        if invariant == "v2":
            return ms.V2_INVARIANT
        return ms.pullback_framed_invariant(ms.FRAMING_PROJECTION)

    def op(self, invariant: str, order: int, family_seed: int) -> Op:
        ms = self.tk.moves_singular

        def run(_tracer):
            # As `transknot order-check --samples 2` does it.
            handle = self.handle(invariant)
            family = ms.singular_family(family_seed, order + 1, 2)
            defects = [ms.vassiliev_defect(handle, s).defect for s in family]
            return {"holds": all(x == 0 for x in defects), "members": len(defects)}

        expected = {"holds": order >= self.CLAIMED[invariant], "members": 2}
        return Op(f"order-check {invariant} n={order} seed={family_seed}", run, expected,
                  check_fields)

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        kinds = [(inv, n) for inv in self.CLAIMED for n in self.ORDERS]
        rng.shuffle(kinds)
        return [self.op(inv, n, rng.randrange(10**6)) for inv, n in kinds]

    def warm_up(self) -> Op:
        return self.op("writhe", 1, self.rng("warm-up").randrange(10**6))


class CliSmall(Workload):
    """Each op is one `transknot` command run as a child process."""

    name = "cli-small"
    DIAGRAMS = tuple(FIXTURE_FACTS)
    # Number of SVG polylines for trefoil_right: one per edge plus one
    # more for every crossing, where the under strand is broken.
    TREFOIL_POLYLINES = 15 + 7

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.work = self.root / "perfbench" / ".work"
        self.work.mkdir(exist_ok=True)
        self.env = child_env(PYTHONPATH=str(self.root / "src"))
        self.launcher = Path(__file__).resolve().parent / "launcher.py"

    def file(self, rel: str) -> str:
        return str(self.inputs.path(rel))

    def spawn(self, argv: list[str], tracer) -> dict:
        """Run one command to completion; returns exit code and stdout."""
        if tracer is None:
            cmd = [sys.executable, "-m", "transknot.cli", *argv]
        else:
            trace_file = self.work / "child-trace.json"
            cmd = [sys.executable, str(self.launcher), str(trace_file), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - start
        if tracer is not None:
            child = json.loads(trace_file.read_text(encoding="utf-8"))
            trace_file.unlink()
            tracer.add_child(child, wall)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return {"code": proc.returncode, "stdout": proc.stdout.splitlines()}

    def command(self, argv: list[str], expected: dict, output: Path | None = None) -> Op:
        tk = self.tk

        def run(tracer):
            return self.spawn(argv, tracer)

        def check(out, expected):
            expect("exit code", out["code"], expected["code"])
            lines = out["stdout"]
            if "stdout" in expected:
                expect("stdout", lines, expected["stdout"])
            if "first_line" in expected:
                expect("first line", lines[:1], [expected["first_line"]])
                expect("line count", len(lines), expected["lines"])
                for line in lines:
                    if not line.startswith("defect=") or not line[7:].lstrip("-").isdigit():
                        raise CheckFailed(f"bad order-check line {line!r}")
            if output is not None:
                try:
                    text = output.read_text(encoding="utf-8")
                finally:
                    output.unlink(missing_ok=True)
                if "polylines" in expected:
                    expect("svg header", text.startswith("<?xml"), True)
                    expect("polylines", text.count("<polyline"), expected["polylines"])
                else:
                    check_fields(diagram_facts(tk, text), expected["reload"])

        return Op(" ".join(argv), run, expected, check)

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []

        def add(argv, expected, output=None):
            ops.append(self.command(argv, expected, output))

        add(["validate", self.file(rng.choice(self.DIAGRAMS))], {"code": 0, "stdout": []})
        add(["validate", self.file("cli/forbidden.td")],
            {"code": 1, "stdout": ["VIOLATION ForbiddenCrossing (0,0)"]})
        # The inserted vertex (0,0) lies inside edge 1.
        add(["validate", self.file("cli/nongeneric.td")],
            {"code": 1, "stdout": ["VIOLATION VertexOnEdge (0,0)"]})

        rel = rng.choice(self.DIAGRAMS)
        facts = FIXTURE_FACTS[rel]
        add(["invariants", self.file(rel)],
            {"code": 0, "stdout": [f"{k}={facts[k]}"
                                   for k in ("writhe", "sl", "whitney", "crossings", "v2")]})
        rel = rng.choice(self.DIAGRAMS)
        add(["oracle-sl", self.file(rel)],
            {"code": 0, "stdout": [f"oracle_sl={FIXTURE_FACTS[rel]['sl']}"]})

        rel = rng.choice(self.DIAGRAMS)
        facts = FIXTURE_FACTS[rel]
        count = rng.choice((1, 2))
        edge = rng.randint(1, vertex_count(self.inputs.texts[rel]))
        out = self.work / f"stabilized-{r}.td"
        reload = {"valid": True, "crossings": facts["crossings"] + 2 * count,
                  "writhe": facts["writhe"] - 2 * count, "v2": facts["v2"], "whitney": 0}
        add(["stabilize", self.file(rel), "--edge", str(edge), "--count", str(count),
             "-o", str(out)], {"code": 0, "stdout": [], "reload": reload}, out)

        # Sites 1-3 of trefoil_right are its positive braid crossings:
        # sigma_1^3.  Making m of them negative gives writhe 1 - 2m, and
        # the closure is an unknot (v2 = 0) unless m is 0 or 3.
        sites = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
        assign = "".join(rng.choice("+-") for _ in sites)
        if assign == "--":
            # Known CLI defect: argparse drops the value "--" as its
            # end-of-options marker, so `resolve --assign=--` exits 1 with
            # a length mismatch.  Until it is fixed the mix asks for one
            # negative site instead.
            sites, assign = sites[:1], "-"
        m = assign.count("-")
        out = self.work / f"resolved-{r}.td"
        reload = {"valid": True, "crossings": 7, "writhe": 1 - 2 * m,
                  "v2": 1 if m in (0, 3) else 0, "whitney": 0}
        add(["resolve", self.file("hosts/trefoil_right.td"),
             "--sites", ",".join(map(str, sites)), f"--assign={assign}", "-o", str(out)],
            {"code": 0, "stdout": [], "reload": reload}, out)

        # Order-1 checks hold for writhe and sl (order 1) and fail for v2
        # (order 2): on the trefoil member with two braid sites erased,
        # the alternating sum of v2 is 1 - 0 - 0 + 0.
        for invariant in ("writhe", "sl-pullback"):
            add(["order-check", "--invariant", invariant, "--order", "1",
                 "--seed", str(rng.randrange(10**6)), "--samples", "2"],
                {"code": 0, "stdout": ["defect=0", "defect=0"]})
        add(["order-check", "--invariant", "v2", "--order", "1",
             "--seed", str(rng.randrange(10**6)), "--samples", "2"],
            {"code": 1, "first_line": "defect=1", "lines": 2})

        a, b = rng.randint(1, 60), rng.randint(1, 60)
        add(["mtor", "--pairings", f"{a},{b}"], {"code": 0, "stdout": [f"m={math.gcd(a, b)}"]})

        add(*rng.choice([
            (["exists", "--euler-finite", "1"], {"code": 0, "stdout": ["EXISTS euler-class-finite-order"]}),
            (["exists", "--tight", "1"], {"code": 0, "stdout": ["EXISTS tight-contact-structure"]}),
            (["exists", "--pairings", "0"], {"code": 0, "stdout": ["EXISTS m_T=0"]}),
            (["exists", "--pairings", f"{2 * a},{2 * b}", "--exhaustive"],
             {"code": 0, "stdout": [f"MOD {2 * math.gcd(a, b)}"]}),
            (["exists", "--pairings", f"{2 * a},{2 * b}"], {"code": 0, "stdout": ["UNKNOWN"]}),
        ]))

        # k stabilizations shift the framing class by -2k; they are told
        # apart when k != 0 and the shift is faithful.
        k, zero_hom, sphere = rng.randint(0, 4), rng.randint(0, 1), rng.randint(0, 1)
        told_apart = k != 0 and (zero_hom == 1 or sphere == 0)
        add(["distinguish", "--tight", "1", "--zero-homologous", str(zero_hom),
             "--sphere", str(sphere), "--stabilizations", str(k)],
            {"code": 0 if told_apart else 1,
             "stdout": ["DISTINGUISHED" if told_apart else "INCONCLUSIVE",
                        f"F(K1) = ({-2 * k})·F(K0)"]})

        out = self.work / f"render-{r}.svg"
        add(["render", self.file("hosts/trefoil_right.td"), "-o", str(out)],
            {"code": 0, "stdout": [], "polylines": self.TREFOIL_POLYLINES}, out)

        rng.shuffle(ops)
        return ops

    def warm_up(self) -> Op:
        return self.command(["validate", self.file("hosts/trefoil_right.td")],
                            {"code": 0, "stdout": []})


def vertex_count(text: str) -> int:
    """Number of vertices (and edges) of a serialized diagram."""
    lines = text.splitlines()
    return lines.index("over:") - lines.index("vertices:") - 1


WORKLOADS = {w.name: w for w in (LadderAnalyze, LadderStabilize, OrderCheck, CliSmall)}
