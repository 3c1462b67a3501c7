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

With `--e2e N` it then runs N alternated pairs of each command of
`E2E_COMMANDS`, the acceptance commands themselves, each as one child

    python3 -m knotct.cli ARGS      (PYTHONPATH=src, in the tree)

and records its wall time and, from `os.wait4`, its user and system CPU
time and peak RSS.  The list is fixed, so every record times the same
commands.

The record keeps the schema of the earlier `BENCH_*.json` files: `point`,
`change`, `parent_commit`, `change_commit`, `host`, `note` and `runs`, one
run per entry with its side, workload, seed, trace flag, command and the
result line `perfbench/run.py` printed.  The `--e2e` runs go under a
further key, `e2e`, one entry per run with its side, pair index, command
and result.  The note opens with `--note` and goes on with a summary: for
each untraced workload and end-to-end metric of `BENCHMARK.json`, and for
each e2e command and measure, the parent and change medians, the pairs in
which the change is better and the parent's interquartile range; for each
traced pair, the largest per-layer self times on both sides, and whether
the call counts agree; and how the two directories were shared.
"""

from __future__ import annotations

import argparse
import hashlib
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
# the acceptance commands the `--e2e` pairs run: CLI latency on one
# obstruct and one invariants query, AC1, AC5 at the CI bound, and AC7
E2E_COMMANDS = (
    ("obstruct", "F1L(1,-1,2,0,1,-2)", "--json"),
    ("invariants", "F1L(-2,-2,-2,-2,-1,0)", "--json"),
    ("verify", "--suite", "formulas"),
    ("verify", "--suite", "genus", "--bound", "4"),
    ("classify-genus2", "--scope", "montesinos", "--bound", "4"),
    ("classify-genus2", "--scope", "alternating_montesinos", "--bound", "3"),
)
E2E_MEASURES = ("wall_s", "user_s", "sys_s", "maxrss_mb")  # each better lower
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


def e2e_plan(pairs):
    """(side, args, pair index) for `pairs` pairs of each `E2E_COMMANDS`
    entry, in run order, alternated as in `plan`."""
    return [(side, args, i) for args in E2E_COMMANDS for i in range(pairs)
            for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def command(workload, seed, seconds, trace):
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def _num(x):
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:.0f}"


def _compare(name, pv, cv, higher):
    """`name`'s parent and change medians, the pairs the change wins and the
    parent's interquartile range, over the paired values `pv` and `cv`."""
    pm, cm = statistics.median(pv), statistics.median(cv)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(pv, cv))
    if len(pv) >= 2:
        q1, _, q3 = statistics.quantiles(pv, n=4)
        iqr = f", parent IQR {_num(q1)}-{_num(q3)}"
    else:
        iqr = ""
    rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    return f"{name} {_num(pm)} -> {_num(cm)} ({rel}, change better in {wins}/{len(pv)}{iqr})"


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
            if pv:
                lines.append(_compare(name, pv, cv, bounds[name] == "higher"))
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


def e2e_summary(e2e):
    """The note's summary of the e2e runs: each command's measures, and
    whether both sides printed the same in every pair."""
    by_key = {(r["side"], r["command"], r["pair"]): r["result"] for r in e2e}
    parts = []
    for cmd in dict.fromkeys(r["command"] for r in e2e):
        paired = [(by_key[("parent", cmd, i)], by_key[("change", cmd, i)])
                  for i in sorted({i for (_, c, i) in by_key if c == cmd})
                  if all((side, cmd, i) in by_key for side in SIDES)]
        if not paired:
            continue
        differ = sum(p["stdout_sha256"] != c["stdout_sha256"] for p, c in paired)
        parts.append(f"e2e `{cmd}` ({len(paired)} pairs): " + "; ".join(
            _compare(m, [p[m] for p, _ in paired], [c[m] for _, c in paired], False)
            for m in E2E_MEASURES)
            + ("; stdout equal on both sides in every pair." if not differ else
               f"; stdout differs between the sides in {differ}/{len(paired)} pairs."))
    return " ".join(parts)


def host(seconds):
    return (f"{os.cpu_count()}-core {platform.machine()} host, Python "
            f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; one run per line, "
            f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace T`, "
            "parent and change alternating which ran first (parent first on even pair "
            "index); both sides extracted with `git archive` into two directories that "
            "they trade between pairs")


def record(point, change, parent_commit, change_commit, note, runs, bounds, host_text,
           e2e=()):
    """The `BENCH_<n>.json` record; the `e2e` key is there only when there
    are e2e runs."""
    texts = (note, summary(runs, bounds), e2e_summary(e2e), DIRECTORIES)
    rec = {"point": point, "change": change, "parent_commit": parent_commit,
           "change_commit": change_commit, "host": host_text,
           "note": " ".join(t for t in texts if t), "runs": runs}
    if e2e:
        rec["e2e"] = list(e2e)
    return rec


def bench(schedule, seconds, run):
    """Run `schedule` (from `plan`) in order, calling `run(side, argv)` for
    each run's result dict, and yield each run's entry as it ends."""
    for side, workload, seed, trace in schedule:
        argv = command(workload, seed, seconds, trace)
        yield {"side": side, "workload": workload, "seed": seed, "trace": trace,
               "command": shlex.join(argv), "result": run(side, argv)}


def bench_e2e(schedule, run):
    """Run `schedule` (from `e2e_plan`) in order, calling `run(side, argv,
    e2e_result)`, and yield each run's entry as it ends."""
    for side, args, pair in schedule:
        argv = ["python3", "-m", "knotct.cli", *args]
        yield {"side": side, "pair": pair, "command": shlex.join(argv),
               "result": run(side, argv, e2e_result)}


def _git(*args, **kwargs):
    return subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True, **kwargs)


def extract(rev, into):
    """The commit of `rev`, with its tree written into the directory `into`."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=_git("archive", commit).stdout, check=True)
    return commit


def _failed(argv, code, err):
    return SystemExit(f"{shlex.join(argv)} exited {code}: {err[-2000:]}")


def perfbench_result(argv, cwd, env):
    """The JSON of the last stdout line of argv, run in `cwd`."""
    p = subprocess.run([sys.executable, *argv[1:]], cwd=cwd, env=env,
                       capture_output=True, text=True)
    if p.returncode != 0:
        raise _failed(argv, p.returncode, p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1])


# Linux carries a process's resident high-water mark across fork and exec
# into the child's ru_maxrss, so the e2e commands are started by this
# launcher, whose mark (no site import) stays below theirs, not by this
# process.  It spawns its arguments, reaps them with os.wait4 and writes
# [exit code, wall s, user s, sys s, peak RSS MB] as the last line of stderr.
_LAUNCHER = """import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_utime,
                  usage.ru_stime, usage.ru_maxrss / 1024]), file=sys.stderr)
"""


def e2e_result(argv, cwd, env):
    """The wall time of argv, run in `cwd` with the tree's `src` on the path,
    its user and system CPU time and peak RSS from `os.wait4`, and the
    sha256 of its stdout."""
    with tempfile.TemporaryFile() as out:
        p = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, sys.executable, *argv[1:]],
                           cwd=cwd, env=dict(env, PYTHONPATH="src"), stdin=subprocess.DEVNULL,
                           stdout=out, stderr=subprocess.PIPE, text=True, check=True)
        *err, last = p.stderr.splitlines()
        code, *measures = json.loads(last)
        if code != 0:
            raise _failed(argv, code, "\n".join(err))
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {**dict(zip(E2E_MEASURES, measures)), "stdout_sha256": digest}


def run_in(tree):
    """A `run(side, argv, launch=perfbench_result)` that runs argv in the
    side's extracted tree and returns `launch(argv, directory, env)`.
    `tree` maps each side to the directory its tree is extracted into; the
    two trees trade directories (by renaming) after every second run, that
    is, between the pairs of a `plan` or `e2e_plan` schedule, so each side
    runs from each directory in every other pair."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    where = dict(tree)
    made = 0

    def run(side, argv, launch=perfbench_result):
        nonlocal made
        if made and made % 2 == 0:
            first, second = where.values()
            os.rename(first, first + ".trading")
            os.rename(second, first)
            os.rename(first + ".trading", second)
            where.update(zip(where, (second, first)))
        made += 1
        try:
            return launch(argv, where[side], env)
        except SystemExit as exc:
            raise SystemExit(f"{side}: {exc}") from None

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
    ap.add_argument("--e2e", type=int, default=0, metavar="N",
                    help="then N alternated pairs of each command of E2E_COMMANDS")
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
        runs, e2e = [], []

        def write(entry, shown):
            """Print the run that ended and write the record as it stands."""
            print(entry["side"], entry["command"], shown, flush=True)
            rec = record(args.point, args.change_text, commits["parent"], commits["change"],
                         args.note, runs, bounds, host(seconds), e2e)
            with open(out, "w") as fh:
                json.dump(rec, fh, indent=1)
                fh.write("\n")

        run = run_in(tree)
        for entry in bench(plan(args.pairs, args.traced), seconds, run):
            runs.append(entry)
            write(entry, json.dumps({k: round(v["value"], 6)
                                     for k, v in entry["result"]["metrics"].items() if k in bounds}))
        for entry in bench_e2e(e2e_plan(args.e2e), run):
            e2e.append(entry)
            write(entry, json.dumps({k: round(entry["result"][k], 4) for k in E2E_MEASURES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
