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

from .errors import BudgetExceeded, InvalidInput, KnotctError, ParseError, ValidationError
from .invariants import InvariantReport, closed_form, skein_a2, skein_w3
from .montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    _to_montesinos,
    enumerate_family,
    genus,
    is_alternating_knot,
    parse_spec,
)
from .oracle import (
    a2_w3_from_jones,
    alternating_genus,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)

# The obstruction chain (`pipeline`), the sweeps and suites (`sweeps`), `csv`
# and `contextlib` are imported inside the subcommands that use them, so a
# single-spec query loads only the code it runs.


class VerificationFailure(KnotctError):
    pass


def invariant_report(spec, method="all") -> InvariantReport:
    """Compute an InvariantReport by the requested route(s).

    "all" computes every applicable route, insists they agree, and merges;
    disagreement is an error, never silently resolved.  Under "all" a
    closed form that raises is left out.  A skein or Jones route over its
    crossing budget is left out too; when no route is left to give a2, the
    first budget error is raised, so a route requested alone still fails.
    """
    routes = {}
    budget_error = None
    if method in ("closed", "all"):
        if isinstance(spec, FamilySpec):
            try:
                r = closed_form(spec)
                routes["closed"] = (r.a2, r.w3)
            except KnotctError:
                if method == "closed":
                    raise
        elif method == "closed":
            raise ValidationError(
                "--method closed needs a family spec (P, DT, F1L, F1R or FAM:), not M(...)")
    d = spec.diagram()
    if method in ("skein", "all"):
        try:
            routes["skein"] = (skein_a2(d), skein_w3(d))
        except BudgetExceeded as exc:
            budget_error = exc
    if method in ("oracle", "all"):
        try:
            routes["oracle"] = a2_w3_from_jones(jones_via_kauffman(d))
        except BudgetExceeded as exc:
            budget_error = budget_error or exc
    a2s = {v[0] for v in routes.values() if v[0] is not None}
    w3s = {v[1] for v in routes.values() if v[1] is not None}
    if not a2s and budget_error is not None:
        raise budget_error
    if len(a2s) > 1 or len(w3s) > 1:
        raise InvalidInput(f"route disagreement: {routes}")
    a2 = a2s.pop() if a2s else None
    w3 = w3s.pop() if w3s else None
    # each value is credited to the first route, in this order, that gave it
    tags = {"closed": "closed_form", "skein": "skein_engine", "oracle": "oracle"}
    meth = {}
    if a2 is not None:
        meth["a2"] = tags[next(k for k in tags if k in routes)]
    if w3 is not None:
        meth["w3"] = tags[next(k for k in tags if k in routes and routes[k][1] is not None)]
    sigma = tau = g = None
    if method in ("oracle", "all"):
        sd = seifert_pipeline(d)
        sigma = oracle_signature(sd)
        meth["sigma"] = "oracle"
        m = None if isinstance(spec, FamilySpec) and spec.family.startswith("fig1") else _to_montesinos(spec)
        if m is not None:
            g = genus(m).genus
            meth["genus"] = "closed_form"
        else:
            ds = d.simplify()
            if ds.n == 0:
                g = 0
                meth["genus"] = "closed_form"
            elif ds.is_alternating() and ds.is_reduced():
                g = alternating_genus(ds, seifert_pipeline(ds))
                meth["genus"] = "oracle"
        alternating = d.is_alternating() or (m is not None and is_alternating_knot(m))
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
    e = verdict.evidence.to_dict()
    return {
        "family": f.family,
        "params": ";".join(f"{k}={v}" for k, v in f.params)
        + (f";sign={f.sign_variant}" if f.sign_variant is not None else "")
        + (";mirror=1" if f.mirror else ""),
        "a2": "" if e["a2"] is None else e["a2"],
        "w3": "" if e["w3"] is None else e["w3"],
        "sigma": "" if e["sigma"] is None else e["sigma"],
        "genus": "" if e["genus"] is None else e["genus"],
        "verdict": verdict.verdict,
        "fired_rule": verdict.fired_rule,
    }


_CSV_COLUMNS = ["family", "params", "a2", "w3", "sigma", "genus", "verdict", "fired_rule"]


def _cmd_enumerate(args):
    if args.family not in FAMILY_NAMES:
        raise ValidationError(f"unknown family {args.family!r}; choose from {FAMILY_NAMES}")
    specs = list(enumerate_family(args.family, args.bound))
    if args.csv:
        import csv

        from .pipeline import obstruct

        w = csv.DictWriter(sys.stdout, fieldnames=_CSV_COLUMNS)
        w.writeheader()
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
            w = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
            w.writeheader()
            for f in run.survivors:
                w.writerow(_row(f, obstruct(f)))
            for spec_str, rule in sorted(run.eliminated.items()):
                w.writerow(
                    dict.fromkeys(_CSV_COLUMNS, "")
                    | {"family": spec_str, "verdict": "no_pcs", "fired_rule": rule}
                )
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
    q.add_argument("--method", choices=["closed", "skein", "oracle", "all"], default="all")
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
    q.add_argument("--bound", type=int, default=2)
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
