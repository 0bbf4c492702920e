"""Write the benchmark's frozen input files and their manifest.

Run once from the repository root:

    python3 perfbench/inputs/generate.py

Every file is produced through the public transknot API and recorded in
MANIFEST.json with its SHA-256 digest.  The benchmark refuses to start
when a file no longer matches its digest, so a later change to
``stabilize`` or ``random_valid_diagram`` cannot silently change what
the workloads read.  Re-running this script is a deliberate act: it
redefines the inputs and must be committed together with the manifest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from transknot import (  # noqa: E402
    Coorientation,
    random_valid_diagram,
    serialize_diagram,
    stabilize,
    v2,
    writhe,
)
from transknot.fixtures import (  # noqa: E402
    minus_unknot,
    trefoil_left,
    trefoil_right,
    u_minus,
    u_minus_forbidden,
)

LADDER_KS = (0, 2, 4, 8)
RANDOM_HOSTS = ((1, Coorientation.PLUS, "plus"), (2, Coorientation.MINUS, "minus"))

# u_minus with the vertex (0,0) inserted on edge 6.  That vertex lies in
# the interior of edge 1, so the curve is not generic.
NONGENERIC = """\
transverse-diagram/1
coorientation: +
vertices:
-1 -1
1 1
2 1
3 0
2 -1
1 -1
0 0
-1 1
-2 1
-3 0
-2 -1
over:
end
"""


def files() -> dict[str, str]:
    out = {}
    for k in LADDER_KS:
        out[f"ladder/trefoil_right-e1-k{k}.td"] = serialize_diagram(
            stabilize(trefoil_right(), 1, k)
        )
    hosts = {"trefoil_right": trefoil_right(), "trefoil_left": trefoil_left()}
    for seed, coor, tag in RANDOM_HOSTS:
        hosts[f"random-{tag}-{seed}"] = random_valid_diagram(seed, coor)
    for name, d in hosts.items():
        out[f"hosts/{name}.td"] = serialize_diagram(d)
    cli = {
        "u_minus": u_minus(),
        "minus_unknot": minus_unknot(),
        "forbidden": u_minus_forbidden(),
    }
    for name, d in cli.items():
        out[f"cli/{name}.td"] = serialize_diagram(d)
    out["cli/nongeneric.td"] = NONGENERIC
    return out


def host_facts(texts: dict[str, str]) -> dict[str, dict[str, int]]:
    """Writhe, v2 and crossing count of each stabilization host, as
    computed at the commit that froze the inputs."""
    from transknot import parse_diagram

    facts = {}
    for path, text in texts.items():
        if path.startswith("hosts/"):
            d = parse_diagram(text)
            facts[path] = {"writhe": writhe(d), "v2": v2(d), "crossings": len(d.crossings)}
    return facts


def main() -> None:
    texts = files()
    for rel, text in texts.items():
        path = HERE / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    manifest = {
        "files": {
            rel: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for rel, text in sorted(texts.items())
        },
        "hosts": host_facts(texts),
    }
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
