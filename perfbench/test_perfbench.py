"""The benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py -q

Short runs of every workload: the metric names match BENCHMARK.json, every
output check passes, each per-layer metric records calls on the workloads
it is meant to move, genus bypasses skein and Kauffman, the failure count
repeats exactly for a seed, and peak memory is the program's own.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# group -> workloads whose end-to-end numbers it should move (README layer map)
COVERAGE = {
    "diagram.core.canonical_key": ("formulas", "classify"),
    "invariants.skein_a2": ("formulas", "classify"),
    "invariants.skein_w3": ("formulas", "classify"),
    "oracle.jones": ("formulas",),
    "oracle.seifert": ("genus", "formulas"),
    "oracle.conway": ("genus", "formulas"),
    "diagram.construct": ("genus", "classify", "formulas"),
    "montesinos.spec": ("genus", "classify"),
    "montesinos.genus": ("genus", "classify"),
    "cf_calculus": ("genus", "classify"),
    "pipeline.obstruct": ("classify",),
    "cli.main": ("cli",),
}


def bench(workload, trace, seed=1, root=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=root,
    )
    return p


def result(workload, trace, seed=1):
    p = bench(workload, trace, seed)
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], p.stdout
    return res


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: result(w["name"], 1) for w in BENCH["workloads"]}


def metric(res, name):
    return res["metrics"][name]["value"]


def test_traced_metrics_match_benchmark_json(traced):
    want = {(m["name"], m["unit"]) for m in BENCH["per_layer"]}
    for res in traced.values():
        assert {(k, v["unit"]) for k, v in res["metrics"].items()} == want


def test_end_to_end_metrics_match_benchmark_json():
    res = result("genus", 0)
    want = {(m["name"], m["unit"]) for m in BENCH["end_to_end"]}
    assert {(k, v["unit"]) for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_each_layer_metric_is_exercised_where_it_should_move(traced):
    for group, workloads in COVERAGE.items():
        for w in workloads:
            assert metric(traced[w], f"{group}.calls") > 0, (group, w)
    assert metric(traced["formulas"], "invariants.skein.memo_entries") > 0
    assert metric(traced["formulas"], "oracle.jones.crossings") > 0
    assert metric(traced["cli"], "cli.import_s") > 0


def test_genus_makes_no_skein_or_kauffman_call(traced):
    g = traced["genus"]
    for group in ("invariants.skein_a2", "invariants.skein_w3", "oracle.jones",
                  "diagram.core.canonical_key"):
        assert metric(g, f"{group}.calls") == 0, group


def test_largest_self_time(traced):
    def largest(res):
        selfs = {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".self_s")}
        return max(selfs, key=selfs.get)

    assert largest(traced["formulas"]) == "diagram.core.canonical_key.self_s"
    assert largest(traced["genus"]) == "diagram.construct.self_s"


def test_failures_are_attributed_to_layers(traced):
    for res in traced.values():
        by_layer = sum(v["value"] for k, v in res["metrics"].items() if k.endswith(".failed"))
        assert by_layer == res["failed"]


def test_failed_count_repeats_for_a_seed():
    a, b = result("classify", 0, seed=1), result("classify", 0, seed=1)
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["failed"] > 0  # the pool is not filtered: over-budget specs stay in


def test_peak_rss_excludes_the_spec_pool():
    pool = subprocess.run(
        [sys.executable, "-c",
         "import resource, workloads; workloads.family_space(); "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE])),
    )
    assert metric(result("genus", 0), "peak_rss_mb") < float(pool.stdout) - 5


def test_launcher_reports_each_query_its_own_peak():
    ballast = b"x" * (96 << 20)  # this process's high-water mark is above 96 MB
    query = ["invariants", "P(3,5,-2)", "--json"]
    job = {"argv": [sys.executable, "-c", f"import sys; sys.exit(sys.argv[1:] != {query})"],
           "queries": [["invariants", "P(3,5,-2)"]]}
    p = subprocess.run([sys.executable, os.path.join(HERE, "cli_launcher.py")],
                       input=json.dumps(job), capture_output=True, text=True, check=True)
    [(rc, _, _, seconds, peak_mb)] = json.loads(p.stdout)["queries"]
    assert rc == 0 and seconds > 0
    assert peak_mb < 48 < len(ballast) >> 20


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("genus", 0, root=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
