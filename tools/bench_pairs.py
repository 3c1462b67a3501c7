"""Parent/change benchmark pairs, written as one `BENCH_<n>.json` record.

    python3 tools/bench_pairs.py PARENT CHANGE --point 42 \\
        --pairs classify=9201-9210 --pairs genus=9301-9310 \\
        --traced classify=9501 --change-text "what the change does"

Extracts the two commits with `git archive` into fresh directories, so
each side runs its committed files and no build output of the working
tree.  For each seed of each `--pairs` range (untraced) and each
`--traced` seed, it runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace T

(`--seconds` is `BENCHMARK.json`'s `run_seconds`) on both sides, one run
at a time, alternating which side runs first: the parent on the even pair
index of each workload and kind, the change on the odd one.  The two
trees trade their directories between pairs, so each side runs from each
directory in every other pair: a difference that follows where a tree
sits, not its code (peak RSS has moved by 0.2 MB with the directory),
falls on both sides alike.  Every run is written to `BENCH_<n>.json` at the repository's root
as it ends, so a record cut short holds the runs made so far.

The record keeps the schema of the earlier `BENCH_*.json` files: `point`,
`change`, `parent_commit`, `change_commit`, `host`, `note` and `runs`, one
run per entry with its side, workload, seed, trace flag, command and the
result line `perfbench/run.py` printed.  The note opens with `--note` and
goes on with a summary: for each untraced workload and end-to-end metric
of `BENCHMARK.json`, the parent and change medians, the pairs in which the
change is better and the parent's interquartile range; for each traced
pair, the largest per-layer self times on both sides, and whether the call
counts agree; and how the two directories were shared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACED_LAYERS = 6  # per-layer self times the note names for each traced pair
DIRECTORIES = ("Both trees were extracted with `git archive` into two directories, which "
               "they traded between pairs, so each side ran from each directory in every "
               "other pair.")


def seed_range(text):
    """`workload=first-last` (or `workload=seed`) as (workload, seeds)."""
    workload, _, seeds = text.partition("=")
    first, _, last = seeds.partition("-")
    if not workload or not first:
        raise argparse.ArgumentTypeError(f"expected workload=first-last, got {text!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def plan(pairs, traced):
    """(side, workload, seed, trace) for every run, in run order: the pairs
    of each workload and kind in seed order, the parent first on even pair
    indices and the change first on odd ones."""
    runs = []
    for trace, groups in ((0, pairs), (1, traced)):
        for workload, seeds in groups:
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs += [(side, workload, seed, trace) for side in order]
    return runs


def command(workload, seed, seconds, trace):
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def _num(x):
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:.0f}"


def summary(runs, bounds):
    """The note's summary of `runs`; `bounds` maps each end-to-end metric to
    the direction ("higher" or "lower") in which it is better."""
    by_key = {(r["side"], r["workload"], r["seed"], r["trace"]): r["result"] for r in runs}
    parts = []
    workloads = list(dict.fromkeys(r["workload"] for r in runs if not r["trace"]))
    for workload in workloads:
        seeds = sorted({s for (_, w, s, t) in by_key if w == workload and not t})
        paired = [(by_key[("parent", workload, s, 0)], by_key[("change", workload, s, 0)])
                  for s in seeds if all((side, workload, s, 0) in by_key for side in SIDES)]
        if not paired:
            continue
        lines = []
        for name in bounds:
            pv = [p["metrics"][name]["value"] for p, c in paired if name in p["metrics"]]
            cv = [c["metrics"][name]["value"] for p, c in paired if name in p["metrics"]]
            if not pv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            higher = bounds[name] == "higher"
            wins = sum((c > p) if higher else (c < p) for p, c in zip(pv, cv))
            if len(pv) >= 2:
                q1, _, q3 = statistics.quantiles(pv, n=4)
                iqr = f", parent IQR {_num(q1)}-{_num(q3)}"
            else:
                iqr = ""
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            lines.append(f"{name} {_num(pm)} -> {_num(cm)} ({rel}, change better in "
                         f"{wins}/{len(pv)}{iqr})")
        fails = sum(r["failed"] for pair in paired for r in pair)
        correct = all(r["correct"] for pair in paired for r in pair)
        parts.append(f"{workload} ({seeds[0]}-{seeds[-1]}, {len(paired)} pairs): "
                     + "; ".join(lines) + f"; correct {str(correct).lower()} and "
                     f"{fails} failed items over both sides.")
    for (side, workload, seed, trace), result in by_key.items():
        if side != "parent" or not trace or ("change", workload, seed, 1) not in by_key:
            continue
        p, c = result["metrics"], by_key[("change", workload, seed, 1)]["metrics"]
        timed = [n for n in p if n.endswith(".self_s") and (p[n]["value"] or c[n]["value"])]
        layers = sorted(timed, key=lambda n: -p[n]["value"])[:TRACED_LAYERS]
        calls = [n for n in p if n.endswith(".calls") and p[n] != c.get(n)]
        parts.append(f"Traced {workload} {seed} (raw seconds): " + ", ".join(
            f"{n} {p[n]['value']:.3f} -> {c[n]['value']:.3f}" for n in layers)
            + ("; calls equal on both sides." if not calls else
               "; calls differ on " + ", ".join(calls) + "."))
    return " ".join(parts)


def host(seconds):
    return (f"{os.cpu_count()}-core {platform.machine()} host, Python "
            f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; one run per line, "
            f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace T`, "
            "parent and change alternating which ran first (parent first on even pair "
            "index); both sides extracted with `git archive` into two directories that "
            "they trade between pairs")


def record(point, change, parent_commit, change_commit, note, runs, bounds, host_text):
    text = summary(runs, bounds)
    return {"point": point, "change": change, "parent_commit": parent_commit,
            "change_commit": change_commit, "host": host_text,
            "note": " ".join(t for t in (note, text, DIRECTORIES) if t), "runs": runs}


def bench(schedule, seconds, run):
    """Run `schedule` (from `plan`) in order, calling `run(side, argv)` for
    each run's result dict, and yield each run's entry as it ends."""
    for side, workload, seed, trace in schedule:
        argv = command(workload, seed, seconds, trace)
        yield {"side": side, "workload": workload, "seed": seed, "trace": trace,
               "command": shlex.join(argv), "result": run(side, argv)}


def _git(*args, **kwargs):
    return subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True, **kwargs)


def extract(rev, into):
    """The commit of `rev`, with its tree written into the directory `into`."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=_git("archive", commit).stdout, check=True)
    return commit


def run_in(tree):
    """A `run(side, argv)` that runs argv in the side's extracted tree and
    returns the JSON of its last stdout line.  `tree` maps each side to the
    directory its tree is extracted into; the two trees trade directories
    (by renaming) after every second run, that is, between the pairs of a
    `plan` schedule, so each side runs from each directory in every other
    pair."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    where = dict(tree)
    made = 0

    def run(side, argv):
        nonlocal made
        if made and made % 2 == 0:
            first, second = where.values()
            os.rename(first, first + ".trading")
            os.rename(second, first)
            os.rename(first + ".trading", second)
            where.update(zip(where, (second, first)))
        made += 1
        p = subprocess.run([sys.executable, *argv[1:]], cwd=where[side], env=env,
                           capture_output=True, text=True)
        if p.returncode != 0:
            raise SystemExit(f"{side}: {shlex.join(argv)} exited {p.returncode}: "
                             f"{p.stderr[-2000:]}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit measured as the parent")
    ap.add_argument("change", help="the commit measured as the change")
    ap.add_argument("--point", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--pairs", type=seed_range, action="append", default=[],
                    metavar="W=FIRST-LAST", help="untraced pairs of workload W, one per seed")
    ap.add_argument("--traced", type=seed_range, action="append", default=[],
                    metavar="W=FIRST-LAST", help="traced pairs of workload W, one per seed")
    ap.add_argument("--change-text", default="", help="the record's `change`")
    ap.add_argument("--note", default="", help="text the note opens with")
    args = ap.parse_args(argv)
    out = os.path.join(REPO, f"BENCH_{args.point}.json")
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        tree = {side: os.path.join(work, side) for side in SIDES}
        commits = {side: extract(rev, tree[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        runs = []
        for entry in bench(plan(args.pairs, args.traced), seconds, run_in(tree)):
            runs.append(entry)
            metrics = entry["result"]["metrics"]
            print(entry["side"], entry["command"], json.dumps(
                {k: round(v["value"], 6) for k, v in metrics.items() if k in bounds}), flush=True)
            rec = record(args.point, args.change_text, commits["parent"], commits["change"],
                         args.note, runs, bounds, host(seconds))
            with open(out, "w") as fh:
                json.dump(rec, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
