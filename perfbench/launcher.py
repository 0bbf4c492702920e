"""Run one traced `transknot` command in a child process.

Usage: python3 perfbench/launcher.py TRACE_FILE ARG...

Behaves like ``python -m transknot.cli ARG...`` (same stdout and exit
code) but times the import of ``transknot.cli``, traces ``dispatch`` and
the library calls below it, and writes the totals to TRACE_FILE as JSON.
The package is found on PYTHONPATH, which the parent sets to the
checkout's ``src``.
"""

import json
import sys
import time

import tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import transknot.cli as cli

    import_s = time.perf_counter() - start
    t = tracer.Tracer()
    with t.active(0):
        outcome = cli.dispatch(argv)
    for line in outcome.stdout_lines:
        print(line)
    with open(trace_file, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "summary": tracer.to_json(t.summary())}, f)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
