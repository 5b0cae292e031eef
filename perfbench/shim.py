"""Run the ehrkit command line with the benchmark's tracer installed.

    python perfbench/shim.py SPANS_JSON -- <ehrkit arguments>

``PYTHONPATH`` must reach ``src/``.  The spans and counters of the run are
written to SPANS_JSON; the exit code is the command's own.
"""

import json
import sys

from tracing import Tracer


def main(argv) -> int:
    path, sep, *rest = argv
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_JSON -- <ehrkit arguments>")
    import ehrkit.cli

    with Tracer() as tracer:
        try:
            code = ehrkit.cli.main(rest)
        except SystemExit as exc:
            code = exc.code
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
