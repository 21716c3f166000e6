"""The dampex benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {campaign,norm-multid,solve-grid}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``dampex`` is imported from its ``src/``.
Each run starts fresh worker processes (``worker.py``), which call
``dampex.cli.main`` once per operation, waiting for each before sending
the next.  Untraced runs (``--trace 0``) time set-up in several fresh
processes and then run operations for S seconds of program time; traced
runs (``--trace 1``) run a fixed number of operations twice, untraced and
traced, so their exact counts repeat and the difference of the two is the
tracing overhead.  The last line of stdout is the result as JSON; the run
record and, for traced runs, the spans go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3        # set-up is timed in this many fresh processes
# operations a traced run performs: fixed, so its counts repeat exactly
TRACE_OPS = {"campaign": 2, "norm-multid": 48, "solve-grid": 4}
TIME_LIMIT_S = 170.0     # every run ends within this, output or not

END_TO_END = {           # name -> unit
    "setup_s": "s", "op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s",
    "mvals_per_s": "1e6/s", "peak_rss_mb": "MiB",
}
HIGHER_IS_BETTER = {"ops_per_s", "mvals_per_s"}


class BenchError(Exception):
    pass


def end_to_end(setups, run, key="_ref"):
    """End-to-end metrics of one timed worker run.

    ``key`` "_ref" takes times rescaled to the reference machine speed
    (the reported metrics, see speed.py); "" takes wall times as measured.
    """
    lat = run["latencies" + key]
    if not lat:
        raise BenchError("no operation succeeded")
    busy = sum(lat)
    return {
        "setup_s": statistics.median(r["setup" + key + "_s"] for r in setups),
        "op_s_p50": statistics.median(lat),
        "op_s_p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1]
                     if len(lat) > 1 else lat[0]),
        "ops_per_s": len(lat) / busy,
        "mvals_per_s": sum(run["rows"]) / busy / 1e6,
        "peak_rss_mb": statistics.median(r["setup_peak_rss_mb"] for r in setups),
    }


# traced layers and the fields each reports
LAYER_FIELDS = {
    "quadrature.adaptive_1d": ("calls", "evals", "busy_s", "self_s"),
    "norms.region_l2_norm": ("calls", "evals", "busy_s", "self_s"),
    "quadrature.integrate_radial": ("calls", "evals", "self_s"),
    "quadrature.choose_angular_rule": ("calls", "busy_s"),
    "quadrature.truncation_radius": ("calls", "busy_s"),
    "spectral.evaluate": ("calls", "points", "busy_s"),
    "initial_data.fourier_transform": ("calls", "points", "busy_s"),
    "expansion.poly_call": ("calls", "points", "scalar_calls", "busy_s"),
    "expansion.build_expansion": ("calls", "busy_s"),
    "initial_data.moment_table": ("calls", "busy_s"),
    "norms.closed_form": ("busy_s",),
    "experiments.rate": ("busy_s",),
    "experiments.sandwich": ("busy_s",),
    "experiments.heat": ("busy_s",),
    "experiments.vanishing": ("busy_s",),
    "experiments.properties": ("busy_s",),
    "cli.main": ("busy_s", "self_s"),
}


def per_layer(counts, times):
    """Per-layer metrics from a traced run's counts and {layer: (busy, self)}."""

    def c(key):
        return counts.get(key, 0)

    out = {}
    for layer, fields in LAYER_FIELDS.items():
        busy, own = times[layer]
        for field in fields:
            if field == "busy_s":
                out[f"{layer}.busy_s"] = busy
            elif field == "self_s":
                out[f"{layer}.self_s"] = own
            else:
                out[f"{layer}.{field}"] = c(f"{layer}.{field}")
    calls = c("norms.region_l2_norm.calls")
    out["norms.region_l2_norm.evals_per_call"] = (
        c("norms.region_l2_norm.evals") / calls if calls else 0.0)
    rules = c("quadrature.choose_angular_rule.calls")
    out["quadrature.choose_angular_rule.nodes_mean"] = (
        c("quadrature.choose_angular_rule.nodes") / rules if rules else 0.0)
    out["quadrature.choose_angular_rule.unstable_frac"] = (
        c("quadrature.choose_angular_rule.unstable") / rules if rules else 0.0)
    out["quadrature.quad.stalls_accepted"] = c("quadrature.quad.stalls_accepted")
    points = c("experiments.curve_points")
    out["experiments.residual_norm_per_curve_point"] = (
        c("experiments.curve_residual_norms") / points if points else 0.0)
    out["cli.output_bytes"] = c("cli.output_bytes")
    return out


PER_LAYER_UNITS = {"calls": "count", "evals": "count", "points": "count",
                   "scalar_calls": "count", "busy_s": "s", "self_s": "s",
                   "evals_per_call": "count", "nodes_mean": "count",
                   "unstable_frac": "ratio", "stalls_accepted": "count",
                   "residual_norm_per_curve_point": "ratio",
                   "output_bytes": "bytes"}


def source_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "dampex").rglob("*.py")))


class Workers:
    """Worker processes of one run, sharing a deadline and a work directory."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.time() + TIME_LIMIT_S
        self.env = dict(os.environ, TMPDIR=str(work))
        self.count = 0

    def spawn(self, *extra):
        self.count += 1
        out = self.work / f"worker{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", str(self.work / f"w{self.count}"), "--out", str(out),
               "--deadline", repr(self.deadline - 5.0), *extra]
        (self.work / f"w{self.count}").mkdir()
        remaining = self.deadline - time.time()
        if remaining <= 0:
            raise BenchError("out of time before a worker could start")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a worker ran past the time limit") from None
        if code != 0 or not out.exists():
            raise BenchError(f"worker exited with {code}")
        return json.loads(out.read_text(encoding="utf-8"))

    def compile_once(self):
        """Import dampex once, untimed, so byte-code exists before timing."""
        code = subprocess.run(
            [sys.executable, "-c", "import dampex.cli"], cwd=ROOT,
            env=dict(self.env, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, self.deadline - time.time())).returncode
        if code != 0:
            raise BenchError("dampex does not import")


def untraced(workers, seconds):
    setups = [workers.spawn("--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    run = workers.spawn("--seconds", repr(float(seconds)))
    setups.append(run)
    metrics = end_to_end(setups, run)
    wall = end_to_end(setups, run, key="")
    return metrics, run, {
        "wall_clock_metrics": wall, "ops": len(run["latencies"]),
        "setup_ref_s": [r["setup_ref_s"] for r in setups],
        "setup_s": [r["setup_s"] for r in setups],
        "latencies_ref": run["latencies_ref"], "latencies": run["latencies"],
        "run_peak_rss_mb": run["run_peak_rss_mb"],
        "speed_samples": run["speed_samples"],
        "kernel_p50_s": run["kernel_p50_s"]}


def traced(workers):
    ops = TRACE_OPS[workers.workload]
    plain = workers.spawn("--ops", str(ops))
    run = workers.spawn("--ops", str(ops), "--trace")
    base = end_to_end([plain], plain)
    with_trace = end_to_end([run], run)
    # span times rescaled by the run's overall speed factor, which removes
    # most of the machine's drift between traced runs
    scale = sum(run["latencies_ref"]) / sum(run["latencies"])
    metrics = per_layer(run["counts"], {
        layer: (busy * scale, own * scale)
        for layer, (busy, own) in run["layer_times"].items()})
    for name, value in base.items():
        worse = (value / with_trace[name] if name in HIGHER_IS_BETTER
                 else with_trace[name] / value)
        metrics[f"trace_overhead.{name}"] = 100.0 * (worse - 1.0)
    record = {"untraced": base, "traced": with_trace, "counts": run["counts"],
              "ops": ops}
    spans = workers.work / f"worker{workers.count}.spans.npz"
    return metrics, [plain, run], record, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = os.environ.get("DAMPEX_THREADS")
    if threads is not None and threads.strip() not in ("", "0", "1"):
        sys.stderr.write("refusing to run: the benchmark measures one client "
                         f"on one thread, but DAMPEX_THREADS={threads}\n")
        return 2
    if not (ROOT / "src" / "dampex" / "__init__.py").is_file():
        sys.stderr.write(f"no dampex sources under {ROOT / 'src'}\n")
        return 3

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    try:
        workers = Workers(args.workload, args.seed, work)
        workers.compile_once()
        if args.trace:
            metrics, runs, record, spans = traced(workers)
            shutil.copyfile(spans, out_dir / f"{stem}.spans.npz")
            units = {name: "%" if name.startswith("trace_overhead.")
                     else PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
                     for name in metrics}
        else:
            metrics, run, record = untraced(workers, args.seconds)
            runs = [run]
            units = END_TO_END
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [msg for r in runs for msg in r["failures"]]
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, nproc=os.cpu_count(),
                  dampex_threads=os.environ.get("DAMPEX_THREADS"),
                  src_lines=source_lines(), loop="closed, 1 client",
                  attempted=attempted, failed=failed, failures=failures[:20],
                  metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    for msg in failures[:5]:
        print(f"failure: {msg.strip()}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:.6g} {units[name]}")
    print(f"attempted {attempted}, failed {failed}; nproc {os.cpu_count()}, "
          f"DAMPEX_THREADS {os.environ.get('DAMPEX_THREADS')}, "
          f"src/dampex {record['src_lines']} lines")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
