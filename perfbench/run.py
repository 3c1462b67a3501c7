"""knotct benchmark: four seeded closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is taken from src/ next to this directory.
Each run starts fresh interpreters (perfbench/worker.py), one at a time:
the skein memos are module globals and must not carry over between runs.

--trace 0 prints the end-to-end metrics: throughput, median and tail item
latency, set-up time (median of several fresh set-ups) and peak RSS.  The
times are in reference seconds: the run's times scaled by the host speed
that speed.py's probe measured through the run.  The summary lines show the
unscaled figures next to them.  The share of items that failed with a typed error (or a non-zero CLI exit) is
printed with them and carried in the result's `failed` field.
--trace 1 runs the same inputs untraced, then traced, and prints the
per-layer metrics of the traced run plus the tracing overhead.

The last line of stdout is one JSON object; lines before it are a readable
summary.  Exit status is non-zero, with no result line, when the program is
missing, a worker fails, or an output check fails to run.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from spans import GROUPS, LAYERS  # noqa: E402

# items per second at the seed commit on a 2-core x86-64 box (Python 3.11.7);
# a run's input size is this rate times --seconds, so it is fixed per
# workload and seed and the failure count repeats exactly
NOMINAL_RATE = {"formulas": 40, "genus": 320, "classify": 320, "cli": 5}
SETUP_PROBES = 10
RUN_DEADLINE_S = 170  # a whole run, all workers included, ends within this
# the tail is the highest of these percentiles with TAIL_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def spawn(cmd, deadline):
    """Run cmd in its own process group; kill the whole group at the deadline."""
    timeout = max(1.0, deadline - time.monotonic())
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         cwd=ROOT, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError(f"{' '.join(cmd[1:])} passed the run deadline") from None
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(deadline, workload, seed, n_items, *flags):
    t_spawn = time.monotonic()
    out = spawn([sys.executable, WORKER, workload, str(seed), str(n_items), *flags], deadline)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready"] - t_spawn - res["setup_probe_s"]
    res["setup_s"] = res["setup_raw_s"] * res["setup_scale"]
    return res


def tail(latencies):
    """(percentile, value, samples beyond) by the nearest-rank method."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1], n - rank
    raise BenchError(f"{n} items are too few for a tail with {TAIL_BEYOND} samples beyond")


def end_to_end(deadline, workload, seed, n_items):
    probes = [run_worker(deadline, workload, seed, n_items, "--setup-only")
              for _ in range(SETUP_PROBES)]
    res = run_worker(deadline, workload, seed, n_items)
    if workload != "cli":  # the cli run's own set-up is item generation, not import
        probes.append(res)
    setups = [p["setup_s"] for p in probes]
    lat = res["latencies_s"]
    k = res["scale"]  # this run's seconds to reference seconds (speed.py)
    scaled = [t * f for t, f in zip(lat, res["item_scales"])]
    pct, tail_s, beyond = tail(scaled)
    metrics = {
        "throughput_per_s": (res["items"] / (res["wall_s"] * k), "1/s"),
        "item_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "throughput_per_s": f"{res['items'] / res['wall_s']:.4g} unscaled, scale {k:.3f}",
        "item_p50_ms": f"{statistics.median(lat) * 1e3:.4g} unscaled",
        "item_tail_ms": f"p{pct:g} of {len(lat)} items, {beyond} beyond; "
                        f"{tail(lat)[1] * 1e3:.4g} unscaled",
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"{statistics.median(p['setup_raw_s'] for p in probes):.4g} unscaled",
    }
    return res, metrics, notes


def per_layer(deadline, workload, seed, n_items):
    base = run_worker(deadline, workload, seed, n_items)
    res = run_worker(deadline, workload, seed, n_items, "--trace")
    tr = res["trace"]
    metrics = {}
    for g in GROUPS:
        metrics[f"{g}.self_s"] = (tr["groups"][g]["self_s"], "s")
        metrics[f"{g}.incl_s"] = (tr["groups"][g]["incl_s"], "s")
        metrics[f"{g}.calls"] = (tr["groups"][g]["calls"], "count")
    keys = tr["groups"]["diagram.core.canonical_key"]["calls"]
    metrics["invariants.skein.memo_hit_ratio"] = (
        1 - res["memo_growth"] / keys if keys else 0.0, "ratio")
    metrics["invariants.skein.memo_entries"] = (res["memo_entries"], "count")
    metrics["oracle.jones.crossings"] = (tr["jones_crossings"], "count")
    metrics["diagram.construct.builds"] = (tr["builds"], "count")
    metrics["diagram.construct.builds_per_item"] = (tr["builds"] / res["items"], "builds/item")
    metrics["cli.import_s"] = (statistics.median(res["import_s"]), "s")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (res["failed_layers"].get(layer, 0), "count")
    metrics["trace.overhead_share"] = (
        res["wall_s"] * res["scale"] / (base["wall_s"] * base["scale"]) - 1, "share")
    if base["failed"] != res["failed"]:
        raise BenchError("traced and untraced runs failed on different items")
    res["n_problems"] += base["n_problems"]
    res["problems"] = base["problems"] + res["problems"]
    return res, metrics, {}


def run_one(workload, seed, seconds, trace):
    n_items = max(2 * TAIL_BEYOND, round(NOMINAL_RATE[workload] * seconds))
    deadline = time.monotonic() + RUN_DEADLINE_S
    res, metrics, notes = (per_layer if trace else end_to_end)(deadline, workload, seed, n_items)
    print(f"workload={workload} seed={seed} items={res['items']} "
          f"trace={int(trace)} checks={res['extra']}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {value:14.6g} {unit:12s} {note}")
    share = res["failed"] / res["items"]
    print(f"  {'failed_share':42s} {share:14.6g} {'share':12s} "
          f"{res['failed']}/{res['items']} {res['errors'] or ''}")
    for p in res["problems"]:
        print(f"  CHECK FAILED: {p}")
    return {
        "correct": res["n_problems"] == 0,
        "attempted": res["items"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*NOMINAL_RATE, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "knotct", "cli.py")):
        print(f"error: no knotct sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(NOMINAL_RATE) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
