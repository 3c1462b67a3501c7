"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED ITEMS [--trace] [--setup-only]

Imports knotct from the checkout's src/, builds the seeded inputs, runs the
timed closed loop (one caller, one item at a time), checks every output and
prints one JSON object.  run.py starts it; the skein memos are module
globals, so each run needs its own interpreter.

The inputs are drawn in a forked child, which builds the whole spec pool
and sends back only the sampled spec strings.  This process parses those,
so its peak RSS is the program's own: import, the items and the memos the
timed loop fills, not the benchmark's pool.

With --setup-only it reports the CLOCK_MONOTONIC instant at which the first
item would start and exits; run.py subtracts the instant it spawned the
process to get the set-up time.  For the cli workload that instant is right
after `import knotct.cli`, since each of its items is a fresh interpreter.
Set-up runs bursts of the speed probe (speed.py) at its start and between
its steps; it reports their total time, which run.py leaves out, and the
scale they give.
"""

import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
SETUP_PROBES = []
SETUP_BURST = 5


def probe_burst():
    SETUP_PROBES.extend(speed.probe() for _ in range(SETUP_BURST))


def setup_report():
    probe_burst()
    return (f'{{"ready": {time.monotonic()!r}, "setup_probe_s": {sum(SETUP_PROBES)!r}, '
            f'"setup_scale": {speed.scale(SETUP_PROBES)!r}}}')


probe_burst()
_t0 = time.perf_counter()
import knotct.cli  # noqa: E402  (the whole package; timed as cli.import_s)

IMPORT_S = time.perf_counter() - _t0
WORKLOAD = sys.argv[1]
if WORKLOAD == "cli" and "--setup-only" in sys.argv:
    print(setup_report())
    sys.exit(0)
probe_burst()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import knotct.invariants as invariants  # noqa: E402
import knotct.montesinos as montesinos  # noqa: E402
from knotct.errors import KnotctError  # noqa: E402

import workloads as w  # noqa: E402
from spans import Tracer, merge_snapshots  # noqa: E402

CLI_TRACED = os.path.join(ROOT, "perfbench", "cli_traced.py")
CLI_LAUNCHER = os.path.join(ROOT, "perfbench", "cli_launcher.py")
TRACE_TAG = "PERFBENCH_TRACE "

INPUTS = {
    "formulas": w.formulas_inputs,
    "genus": w.genus_inputs,
    "classify": w.classify_inputs,
    "cli": w.cli_inputs,
}
ITEMS = {
    "formulas": w.formulas_item,
    "genus": w.genus_item,
    "classify": w.classify_item,
}


def draw_inputs(workload, seed, n_items):
    """The seeded inputs, drawn in a forked child and sent back as JSON."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            items = INPUTS[workload](w.rng_for(workload, seed), n_items)
            with os.fdopen(wfd, "w") as fh:
                json.dump(items, fh)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)  # never return into the parent's code
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("drawing the inputs failed")
    return json.loads(data)


def memo_entries():
    # read-only: the benchmark never clears or alters the memos
    return sum(len(getattr(invariants, name, ())) for name in ("_A2_MEMO", "_W3_MEMO"))


def run_inprocess(item, items, tracer):
    outputs, lat, errors, failed_layers, crashes = [], [], Counter(), Counter(), []
    clock = time.perf_counter
    memo0 = memo_entries()
    probes, after = [], []
    if tracer:
        tracer.reset()
    start = next_probe = clock()
    for f in items:
        t = clock()
        out = None
        try:
            out = item(f)
        except KnotctError as exc:
            errors[type(exc).__name__] += 1
            failed_layers[getattr(exc, "perfbench_layer", "untraced")] += 1
        except Exception as exc:  # an untyped error is a wrong output: record it, go on
            errors[type(exc).__name__] += 1
            crashes.append(f"{f}: untyped {type(exc).__name__}: {exc}")
        lat.append(clock() - t)
        outputs.append(out)
        if clock() >= next_probe:
            probes.append(speed.probe())
            after.append(len(lat) - 1)
            next_probe = clock() + speed.PROBE_EVERY_S
    wall = clock() - start - sum(probes)
    res = {
        "wall_s": wall,
        "scale": speed.scale(probes),
        "item_scales": speed.local_scales(len(lat), probes, after),
        "latencies_s": lat,
        "errors": dict(errors),
        "failed_layers": dict(failed_layers),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo_entries": memo_entries(),
        "memo_growth": memo_entries() - memo0,
        "import_s": [IMPORT_S],
        "trace": tracer.snapshot() if tracer else None,
    }
    return outputs, crashes, res


def run_cli(items, traced):
    head = [sys.executable, CLI_TRACED] if traced else [sys.executable, "-m", "knotct.cli"]
    job = json.dumps({"argv": head, "queries": items})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    p = subprocess.run([sys.executable, CLI_LAUNCHER], input=job, env=env, capture_output=True,
                       text=True, cwd=ROOT, check=True)
    launched = json.loads(p.stdout)
    outputs, lat, peaks = [], [], []
    errors, failed_layers, snaps, imports = Counter(), Counter(), [], []
    memo_total = 0
    for rc, out, err, seconds, peak_mb in launched["queries"]:
        lat.append(seconds)
        peaks.append(peak_mb)
        info = None
        if traced:
            keep = []
            for line in err.splitlines(keepends=True):
                if line.startswith(TRACE_TAG):
                    info = json.loads(line[len(TRACE_TAG):])
                else:
                    keep.append(line)
            err = "".join(keep)
        if info:
            snaps.append(info["trace"])
            imports.append(info["import_s"])
            memo_total += info["memo_entries"]
        if rc != 0:
            errors[(info or {}).get("error") or f"exit_{rc}"] += 1
            failed_layers[(info or {}).get("layer") or "cli"] += 1
        outputs.append((rc, out, err))
    res = {
        "wall_s": launched["wall_s"],
        "scale": speed.scale(launched["probes"]),
        "item_scales": speed.local_scales(len(lat), launched["probes"], launched["probe_after"]),
        "latencies_s": lat,
        "errors": dict(errors),
        "failed_layers": dict(failed_layers),
        "peak_rss_mb": max(peaks),
        "memo_entries": memo_total,
        "memo_growth": memo_total,
        "import_s": imports or [IMPORT_S],
        "trace": merge_snapshots(snaps) if traced else None,
    }
    return outputs, [], res


def main():
    seed, n_items = int(sys.argv[2]), int(sys.argv[3])
    items = draw_inputs(WORKLOAD, seed, n_items)
    probe_burst()
    if WORKLOAD != "cli":
        items = [montesinos.parse_spec(text) for text in items]
    tracer = None
    if "--trace" in sys.argv and WORKLOAD != "cli":
        tracer = Tracer()
        tracer.install()
    setup = json.loads(setup_report())
    if "--setup-only" in sys.argv:
        print(json.dumps(setup))
        return
    if WORKLOAD == "cli":
        outputs, crashes, res = run_cli(items, "--trace" in sys.argv)
    else:
        outputs, crashes, res = run_inprocess(ITEMS[WORKLOAD], items, tracer)
        if tracer:
            tracer.uninstall()
    if WORKLOAD == "formulas":
        bad, extra = w.formulas_check(items, outputs)
    elif WORKLOAD == "genus":
        bad, extra = w.genus_check(items, outputs)
    elif WORKLOAD == "classify":
        bad, extra = w.classify_check(items, outputs, random.Random(f"classify/{seed}/recheck"))
    else:
        bad, extra = w.cli_check(items, outputs)
    bad = crashes + bad
    res.update(
        **setup,
        items=len(items),
        failed=sum(res["errors"].values()),
        problems=bad[:10],
        n_problems=len(bad),
        extra=extra,
    )
    print(json.dumps(res))


if __name__ == "__main__":
    main()
