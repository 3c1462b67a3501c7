"""The AC1 invariants digest: one sha256 over every formulas-suite report.

    PYTHONPATH=src python3 tools/ac1_digest.py

Runs `knotct.cli.invariant_report(f)` (method "all") on each spec of the
formulas suite's bound-2 list, `_formulas_specs(2)`, in its sweep order.
Each spec gives one line: `json.dumps(report.to_dict(), sort_keys=True)`,
or `Type: message` when the report raises a `KnotctError` (the error's
class name and `str`).  The lines are joined by single newlines, with none
after the last, and the sha256 of that text's UTF-8 bytes is printed after
the spec count, as `<count> <hex digest>`.  Any change to an invariant,
to a provenance map or to which specs fail, and how, changes the digest.
"""

from __future__ import annotations

import hashlib
import json

from knotct.cli import invariant_report
from knotct.errors import KnotctError
from knotct.sweeps import _formulas_specs


def report_line(spec):
    try:
        return json.dumps(invariant_report(spec).to_dict(), sort_keys=True)
    except KnotctError as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(specs):
    """(spec count, sha256 hex digest of their report lines)."""
    text = "\n".join(map(report_line, specs))
    return len(specs), hashlib.sha256(text.encode()).hexdigest()


def main():
    count, hexdigest = digest(_formulas_specs(2))
    print(count, hexdigest)


if __name__ == "__main__":
    main()
