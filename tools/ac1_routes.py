"""Per-route CPU time over the formulas suite (AC1), in one process.

    PYTHONPATH=src python3 tools/ac1_routes.py

Builds the formulas suite's bound-2 spec list, keeps the knot diagrams of
at most 22 crossings as the suite does, and runs every route on each
diagram, charging `time.process_time()` to the route that ran:

- diagram build: `f.diagram()`, the component and crossing-cap checks
  (specs that build no knot diagram are charged here too) and the kept
  diagram's face table, `d.face_table()`, which the diagram caches and the
  Kauffman and Seifert routes both read;
- Kauffman/Jones: `jones_via_kauffman`;
- Gauss w3 + a2: `gauss_a2`, `gauss_w3`;
- Seifert surface: `seifert_pipeline`;
- Conway determinant: `conway_polynomial(...).coefficient(2)`;
- `a2_w3_from_jones`, closed forms: the Jones derivatives and `closed_form`.

It prints a Markdown table of seconds and shares, largest first, and under
it the plan memo's `cache_info()`: the Kauffman route plans each wiring of
twist regions once (`knotct.kauffman._plan`).  The routes' agreement is
checked by `knotct verify --suite formulas`, not here.
"""

from __future__ import annotations

import time

from knotct.errors import KnotctError, NoFormula
from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import closed_form
from knotct.kauffman import _plan
from knotct.oracle import (
    a2_w3_from_jones,
    conway_polynomial,
    jones_via_kauffman,
    seifert_pipeline,
)
from knotct.sweeps import _FORMULAS_CROSSING_CAP, _formulas_specs

ROUTES = (
    "diagram build",
    "Kauffman/Jones",
    "Gauss w3 + a2",
    "Seifert surface",
    "Conway determinant",
    "`a2_w3_from_jones`, closed forms",
)


def route_times(specs):
    """(seconds per route, crossing counts of the diagrams timed)."""
    clock = time.process_time
    spent = dict.fromkeys(ROUTES, 0.0)
    crossings = []
    for f in specs:
        t0 = clock()
        try:
            d = f.diagram()
        except KnotctError:
            d = None
        keep = d is not None and d.component_count() == 1 and d.n <= _FORMULAS_CROSSING_CAP
        if keep:
            d.face_table()
        t1 = clock()
        spent["diagram build"] += t1 - t0
        if not keep:
            continue
        crossings.append(d.n)
        jones = jones_via_kauffman(d)
        t2 = clock()
        gauss_a2(d), gauss_w3(d)
        t3 = clock()
        surface = seifert_pipeline(d)
        t4 = clock()
        conway_polynomial(surface).coefficient(2)
        t5 = clock()
        a2_w3_from_jones(jones)
        try:
            closed_form(f)
        except NoFormula:
            pass
        t6 = clock()
        marks = (t1, t2, t3, t4, t5, t6)
        for route, start, end in zip(ROUTES[1:], marks, marks[1:]):
            spent[route] += end - start
    return spent, crossings


def main():
    specs = _formulas_specs(2)
    spent, crossings = route_times(specs)
    total = sum(spent.values())
    n = len(crossings)
    mean = sum(crossings) / n if n else 0.0
    print(f"{n:,} diagrams of {len(specs):,} specs, {total:.1f} s CPU in all "
          f"(mean {mean:.1f} crossings, at most {max(crossings, default=0)})")
    print()
    print("| Route | Time | Share |")
    print("|---|---|---|")
    for route in sorted(ROUTES, key=spent.get, reverse=True):
        share = spent[route] / total if total else 0.0
        print(f"| {route} | {spent[route]:.1f} s | {share:.0%} |")
    print()
    print(f"Kauffman plans: {_plan.cache_info()}")


if __name__ == "__main__":
    main()
