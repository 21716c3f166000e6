"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every traced or timed run happens in a fresh process, as in the benchmark,
because the package's caches would otherwise carry work between runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ANCHOR = {"dimension": 3, "u0": {"family": "gaussian", "scale": 1.0},
          "u1": {"family": "zero"}}
ANCHOR_EVALUATIONS = 387_408


def _worker(tmp_path, workload, seed, *extra):
    work = tmp_path / f"work-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    out = work / "result.json"
    subprocess.run([sys.executable, str(BENCH / "worker.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--work", str(work), "--out", str(out), *extra],
                   check=True, timeout=300, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload,ops", [("campaign", 1), ("norm-multid", 24),
                                          ("solve-grid", 2)])
def test_traced_counts_repeat_exactly(tmp_path, workload, ops):
    first = _worker(tmp_path, workload, 7, "--ops", str(ops), "--trace")
    second = _worker(tmp_path, workload, 7, "--ops", str(ops), "--trace")
    assert first["failed"] == 0
    assert first["counts"] == second["counts"]
    exact = {k: v for k, v in first["counts"].items()
             if k.endswith((".calls", ".evals", ".points"))}
    assert exact and all(isinstance(v, int) for v in exact.values())


_ANCHOR_SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer
from dampex import cli
tr = tracer.Tracer()
tracer.install(tr)
with open({data!r}, "w") as handle:
    json.dump({pair!r}, handle)
cli.main(["norm", "--data", {data!r}, "--t", "1e4", "--k", "1",
          "--region", "full", "--out", {out!r}])
result = json.load(open({out!r}))["results"][0]
print(json.dumps({{"outside": tr.counts["norms.region_l2_norm.evals"],
                  "inside": result["evaluations"]}}))
"""


def test_anchor_evaluations_counted_from_outside(tmp_path):
    script = _ANCHOR_SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"),
                                   data=str(tmp_path / "pair.json"),
                                   out=str(tmp_path / "norm.json"), pair=ANCHOR)
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120)
    counts = json.loads(done.stdout.strip().splitlines()[-1])
    assert counts["outside"] == counts["inside"] == ANCHOR_EVALUATIONS


def test_rescaled_times_move_as_wall_times_under_a_known_slowdown(tmp_path):
    """A slowdown of dampex must move the reported (rescaled) times by the
    ratio it moves the wall times: the speed sampler runs inside dampex's
    process, so if dampex's own work slowed the kernel, a regression would
    partly cancel itself.  Each request runs once plain and once with
    ``SpectralSolution.evaluate`` doing its work twice, interleaved, so
    machine drift hits both sides alike and the wall ratio is a fair truth."""
    wall, ref = [0.0, 0.0], [0.0, 0.0]
    for parity in (0, 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "tests" / "slowdown_probe.py"),
             "--parity", str(parity), "--work", str(tmp_path / f"w{parity}")],
            check=True, capture_output=True, text=True, timeout=300)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert out["failed"] == 0
        for side in (0, 1):
            wall[side] += out["wall"][side]
            ref[side] += out["ref"][side]
    wall_ratio = wall[1] / wall[0]
    assert wall_ratio > 1.3                 # the slowdown is material
    bound = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}["op_s_p50"]
    assert abs(ref[1] / ref[0] / wall_ratio - 1.0) < bound / 3


@pytest.mark.parametrize("workload,ops", [("campaign", 12), ("norm-multid", 400),
                                          ("solve-grid", 40)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_datum_value_repeats_within_a_run(workload, ops, seed):
    """The lru_cache keys of dampex are value-equal frozen dataclasses built
    from u0, u1 and their sum; if none of these repeats across the warm-up
    and the timed operations, no operation is served from another's cache."""
    from dampex.initial_data import add_data, pair_from_config

    stream = workloads.Stream(workload, seed)
    ops_list = [stream.warmup()] + [stream.next() for _ in range(ops)]
    pairs = ([case["data"] for op in ops_list for case in op["config"]["cases"]]
             if workload == "campaign" else [op["data"] for op in ops_list])
    u0s, sums = [], []
    for pair in pairs:
        u0, u1 = pair_from_config(pair)
        u0s.append(u0)
        sums.append(add_data(u0, u1))
    assert len(set(u0s)) == len(u0s)
    assert len(set(sums)) == len(sums)


def test_streams_repeat_for_one_seed_and_differ_across_seeds():
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.Stream(workload, s) for s in (3, 3, 4))
        first = [a.next() for _ in range(5)]
        assert first == [b.next() for _ in range(5)]
        assert first != [c.next() for _ in range(5)]


def test_radial_pool_requests_have_an_independent_reference():
    pool = workloads.load_norm_pool()["requests"]
    radial = [r for r in pool if oracle.is_radial_pair(r["data"])]
    assert {r["kind"] for r in radial} == {"gauss", "gauss-sum"}
    for req in radial[:50]:
        ref = oracle.residual_norm(req["data"], req["t"], req["k"], req["region"])
        assert ref == pytest.approx(req["reference"]["value"], rel=1e-9, abs=1e-14)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    printed = run.per_layer({}, {n: (1.0, 1.0) for n in tracer.SPAN_LAYERS})
    printed.update({f"trace_overhead.{n}": 0.0 for n in run.END_TO_END})
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_more_than_one_thread():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "norm-multid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        env=dict(os.environ, DAMPEX_THREADS="2"), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
