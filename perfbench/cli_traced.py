"""`python -m knotct.cli ARGS` with the layer tracer installed.

    python3 perfbench/cli_traced.py invariants 'P(3,5,-2)' --json

Runs the same `knotct.cli.main` as the plain command, then writes one line
`PERFBENCH_TRACE {json}` to stderr: the import time of knotct.cli, the
aggregated spans, the skein memo size at exit, and for a non-zero exit the
error type and the layer it escaped from.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import knotct.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import knotct.invariants as invariants  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    rc = knotct.cli.main(sys.argv[1:])
    exc = tracer.last_error if rc else None
    info = {
        "import_s": IMPORT_S,
        "trace": tracer.snapshot(),
        "memo_entries": sum(len(getattr(invariants, n, ())) for n in ("_A2_MEMO", "_W3_MEMO")),
        "error": type(exc).__name__ if exc is not None else None,
        "layer": getattr(exc, "perfbench_layer", None),
    }
    print("PERFBENCH_TRACE " + json.dumps(info), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
