"""Command-line interface.

Subcommands: invariants, obstruct, enumerate, classify-genus2, verify,
twists.  Exit codes: 0 success, 1 computation error, 2 parse/validation
error or an output pipe closed by its reader, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    InvalidInput,
    KnotctError,
    NotAKnot,
    ParseError,
    ValidationError,
)
from .invariants import InvariantReport, closed_a2_w3, closed_form, diagram_genus
from .montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    _normal_pairs,
    enumerate_family,
    genus,
    is_alternating_knot,
    parse_spec,
)

# The obstruction chain (`pipeline`), the sweeps and suites (`sweeps`), the
# Gauss diagram formulas, the Jones and Seifert oracle, `csv` and
# `contextlib` are imported inside the subcommands and branches that use
# them, so a single-spec query loads only the code it runs.


class VerificationFailure(KnotctError):
    pass


def invariant_report(spec, method="all") -> InvariantReport:
    """Compute an InvariantReport by the requested route(s).

    "all" runs the closed form, the Gauss diagram formulas and the Jones
    route, insists they agree, and merges; disagreement is an error, never
    silently resolved.  Under "all" a closed form that raises is left out,
    and so is a Jones route over its crossing budget; the Gauss diagram
    formulas have no budget, so a route always remains.  A route requested
    alone still fails.  Under every method a link spec is refused from its
    tangle pairs before any diagram is built; a pretzel of unit strands has
    none, so a diagram build refuses it, except under "closed", which builds
    no diagram and refuses it from its strand count.
    """
    norm = _normal_pairs(spec)  # NotAKnot for pairs of a link; None if there are none
    if method == "closed":
        if not isinstance(spec, FamilySpec):
            raise ValidationError(
                "--method closed needs a family spec (P, DT, F1L, F1R or FAM:), not M(...)")
        # unit strands make the (2, k) torus link of k strands when k is even
        if norm is None and spec.family == "pretzel" and len(spec.params) % 2 == 0:
            raise NotAKnot("2 components")
        return closed_form(spec)
    routes = {}
    if method == "all" and isinstance(spec, FamilySpec):
        try:
            routes["closed"] = closed_a2_w3(spec)
        except KnotctError:
            pass
    d = spec.diagram()
    if method in ("gauss", "all"):
        from .gauss import gauss_a2, gauss_w3

        routes["gauss"] = (gauss_a2(d), gauss_w3(d))
    if method in ("oracle", "all"):
        from .oracle import a2_w3_from_jones, jones_via_kauffman

        try:
            routes["oracle"] = a2_w3_from_jones(jones_via_kauffman(d))
        except BudgetExceeded:
            if method == "oracle":
                raise
    if len(set(routes.values())) > 1:
        raise InvalidInput(f"route disagreement: {routes}")
    # every route gives both values; they are credited to the first route,
    # in the order closed, gauss, oracle, that ran
    first = next(iter(routes))
    a2, w3 = routes[first]
    tag = {"closed": "closed_form", "gauss": "gauss_diagram", "oracle": "oracle"}[first]
    meth = {"a2": tag, "w3": tag}
    sigma = tau = g = None
    if method in ("oracle", "all"):
        from .oracle import oracle_signature, seifert_pipeline

        sd = seifert_pipeline(d)
        sigma = oracle_signature(sd)
        meth["sigma"] = "oracle"
        if norm is not None:
            g = genus(norm).genus
            meth["genus"] = "closed_form"
        else:
            e = d.simplify()  # d itself when no move applies: reuse its surface
            g, route = diagram_genus(e, sd if e is d else None)
            if g is not None:
                meth["genus"] = route
        alternating = d.is_alternating() or (norm is not None and is_alternating_knot(norm))
        if alternating:
            tau = Fraction(-sigma, 2)
            meth["tau"] = "oracle"
    return InvariantReport(a2=a2, w3=w3, sigma=sigma, tau=tau, genus=g, method=meth)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_invariants(args):
    spec = parse_spec(args.spec)
    rep = invariant_report(spec, args.method)
    if args.json:
        print(json.dumps(rep.to_dict(), sort_keys=True))
    else:
        d = rep.to_dict()
        for k in ("a2", "w3", "sigma", "tau", "genus"):
            if d[k] is not None:
                print(f"{k} = {d[k]} ({d['method'].get(k, '-')})")
    return 0


def _cmd_obstruct(args):
    from .pipeline import obstruct

    spec = parse_spec(args.spec)
    v = obstruct(spec)
    if args.json:
        print(json.dumps(v.to_dict(), sort_keys=True))
    else:
        print(f"{spec}: {v.verdict} (rule: {v.fired_rule})")
    return 0


def _row(f, verdict):
    """A spec's CSV row, in `_CSV_COLUMNS` order."""
    e = verdict.evidence.to_dict()
    return [
        f.family,
        ";".join(f"{k}={v}" for k, v in f.params)
        + (f";sign={f.sign_variant}" if f.sign_variant is not None else "")
        + (";mirror=1" if f.mirror else ""),
        *("" if e[k] is None else e[k] for k in ("a2", "w3", "sigma", "genus")),
        verdict.verdict,
        verdict.fired_rule,
    ]


_CSV_COLUMNS = ["family", "params", "a2", "w3", "sigma", "genus", "verdict", "fired_rule"]


def _cmd_enumerate(args):
    if args.family not in FAMILY_NAMES:
        raise ValidationError(f"unknown family {args.family!r}; choose from {FAMILY_NAMES}")
    specs = list(enumerate_family(args.family, args.bound))
    if args.csv:
        import csv

        from .pipeline import obstruct

        w = csv.writer(sys.stdout)
        w.writerow(_CSV_COLUMNS)
        for f in specs:
            w.writerow(_row(f, obstruct(f)))
    else:
        for f in specs:
            print(f)
    return 0


def _cmd_classify(args):
    import contextlib
    import csv

    from .pipeline import obstruct
    from .sweeps import classify_genus2

    # open the CSV before the sweep, so a bad path fails at once
    try:
        fh = open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise ValidationError(f"cannot write {args.csv}: {exc.strerror}") from exc
    with fh:
        run = classify_genus2(args.bound, args.scope)
        if args.csv:
            w = csv.writer(fh)
            w.writerow(_CSV_COLUMNS)
            w.writerows(_row(f, obstruct(f)) for f in run.survivors)
            # an eliminated spec's row names it in the family column
            w.writerows([spec_str, "", "", "", "", "", "no_pcs", rule]
                        for spec_str, rule in sorted(run.eliminated.items()))
    print(f"scope={run.scope} bound={run.bound}: "
          f"{len(run.eliminated)} eliminated, {len(run.survivors)} survivors")
    for f in run.survivors:
        extra = run.matches.get(str(f))
        print(f"survivor {f}" + (f"  ~ {extra}" if extra else ""))
    for msg in run.failures:
        print(f"FAILURE {msg}")
    if run.failures:
        raise VerificationFailure(f"{len(run.failures)} survivor checks failed")
    return 0


def _cmd_verify(args):
    from .sweeps import verify_suite

    rep = verify_suite(args.suite, args.bound)
    for c in rep["checks"]:
        status = "ok  " if c["passed"] else "FAIL"
        line = f"{status} {c['name']}"
        if not c["passed"] and c["counterexample"] is not None:
            line += f"  counterexample: {c['counterexample']}"
        print(line)
    if not rep["passed"]:
        raise VerificationFailure(f"suite {args.suite} failed")
    return 0


def _cmd_twists(args):
    from .pipeline import twist_gate

    spec = parse_spec(args.spec)
    g = twist_gate(spec)
    print(f"{spec}: {g.twists} twist regions; gate {'fires' if g.fires else 'does not fire'}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="knotct", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("invariants", help="a2/w3/sigma/tau/genus of one knot spec")
    q.add_argument("spec")
    q.add_argument("--method", choices=["closed", "gauss", "oracle", "all"], default="all")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_invariants)

    q = sub.add_parser("obstruct", help="cosmetic-surgery obstruction verdict")
    q.add_argument("spec")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_obstruct)

    q = sub.add_parser("enumerate", help="list one genus-2 family at a bound")
    q.add_argument("--family", required=True)
    q.add_argument("--bound", type=int, required=True)
    q.add_argument("--csv", action="store_true")
    q.set_defaults(fn=_cmd_enumerate)

    q = sub.add_parser("classify-genus2", help="sweep a scope and validate survivors")
    q.add_argument("--scope", choices=["montesinos", "alternating_montesinos", "fig1"],
                   required=True)
    q.add_argument("--bound", type=int, required=True)
    q.add_argument("--csv", metavar="OUT", help="also write per-spec rows to a CSV file")
    q.set_defaults(fn=_cmd_classify)

    q = sub.add_parser("verify", help="run a cross-validation suite")
    q.add_argument("--suite", required=True,
                   choices=["formulas", "cf_identities", "signatures", "genus", "claim42"])
    q.add_argument("--bound", type=int, default=2,
                   help="parameter bound of the formulas, genus and claim42 sweeps; "
                        "the signatures and cf_identities suites run fixed cases "
                        "and do not read it")
    q.set_defaults(fn=_cmd_verify)

    q = sub.add_parser("twists", help="twist-number gate of an alternating build")
    q.add_argument("spec")
    q.set_defaults(fn=_cmd_twists)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull so the
        # interpreter's final flush stays quiet, and exit as for any fault
        # of the environment
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except KnotctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for note in getattr(exc, "__notes__", ()):
            print(note, file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
