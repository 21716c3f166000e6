"""One benchmark process: set up, then run one workload's operations.

    python3 perfbench/worker.py --workload W --seed N --work DIR --out FILE
        (--setup-only | --seconds S | --ops K) [--trace]

Set-up is timed from before ``import dampex`` to the end of one warm-up
call (its input files and check excluded), so it holds what a fresh CLI
process pays before its first result.  Each timed operation is one call
into ``dampex.cli.main`` by one closed-loop client; inputs are written and
outputs checked outside the timed region.  ``speed.Sampler`` samples the
machine's speed throughout; every time is recorded both as measured and
rescaled to the reference machine speed.  The result goes to
FILE as JSON; the process prints nothing on stdout.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

SAMPLER = speed.Sampler()
SAMPLER.start()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(SRC))

import dampex  # noqa: E402
from dampex import cli  # noqa: E402
from dampex.initial_data import pair_from_config  # noqa: E402
from dampex.spectral import SpectralSolution  # noqa: E402
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

CHECK_SLACK = 100.0      # adaptive_1d accepts stalls up to 100 x tol
VALUE_FLOOR = 1e-14      # region_l2_norm's documented absolute value floor
SOLVE_SPOT_ROWS = 64


class CheckFailed(Exception):
    pass


def _close(value, ref, rel, what, floor=0.0):
    if not (math.isfinite(value)
            and abs(value - ref) <= rel * abs(ref) + floor):
        raise CheckFailed(f"{what}: got {value!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# campaign


def _expected_entries(cfg):
    """The entry keys run_report emits for a config, in order."""
    out = []
    for case in cfg["cases"]:
        name, checks = case["name"], case["checks"]
        ks = case.get("k_values", [0])
        ells = case.get("ells", [0.0])
        for k in ks:
            out += [(name, chk, k, None, None, None)
                    for chk in ("rate", "sandwich", "heat") if chk in checks]
        if "vanishing_heat" in checks:
            out += [(name, "vanishing_heat", None, g, e, None)
                    for g in case.get("gammas", [0.0]) for e in ells]
        if "vanishing_low_frequency" in checks:
            out += [(name, "vanishing_low_frequency", k, None, e, None)
                    for k in ks for e in ells]
        if "properties" in checks:
            for k in range(max(ks) + 3):
                out.append((name, "property", k, None, None, "additivity"))
                if k >= 2:
                    out.append((name, "property", k, None, None, "recurrence"))
                out.append((name, "property", k, None, None, "homogeneity"))
    return out


def _read_curve(path):
    rows = path.read_text(encoding="utf-8").split("\n")[1:-1]
    return np.array([[float(x) for x in row.split(",")] for row in rows])


def check_campaign(op, out_dir, rc):
    cfg = op["config"]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if rc != 0 or not summary["passed"] or summary["n_failed"]:
        raise CheckFailed(f"campaign did not pass (exit {rc})")
    entries = summary["entries"]
    keys = [(e["case"], e["check"], e.get("k"), e.get("gamma"), e.get("ell"),
             e.get("name")) for e in entries]
    if keys != _expected_entries(cfg):
        raise CheckFailed("campaign entries differ from the config's checks")
    bad = [k for k, e in zip(keys, entries) if e["status"] != "pass"]
    if bad:
        raise CheckFailed(f"entries not passing: {bad}")
    rel = CHECK_SLACK * cfg["quad_tol"]
    grid = cfg["t_grid"]
    ts = np.geomspace(grid["t_min"], grid["t_max"], grid["points"])
    by_key = dict(zip(keys, entries))
    for case in cfg["cases"]:
        name, pair = case["name"], case["data"]
        n = pair["dimension"]
        for k in case["k_values"]:
            norms = np.array([oracle.residual_norm(pair, float(t), k)
                              for t in ts])
            inc, heat_half, heat_full = oracle.campaign_constants(pair, k)
            slope = -n / 4.0 - k / 2.0
            ratios = norms / (inc * ts ** slope)
            for label, ref in (("norms", norms), ("ratios", ratios)):
                got = _read_curve(out_dir / f"{label}_k{k}_{name}.csv")
                if got.shape != (len(ts), 2):
                    raise CheckFailed(f"{label}_k{k}_{name}.csv has shape {got.shape}")
                for (t, val), t_ref, r in zip(got, ts, ref):
                    _close(t, t_ref, 1e-15, f"{name} t grid")
                    _close(val, r, rel, f"{name} {label} k={k} t={t:g}")
            rate = by_key[(name, "rate", k, None, None, None)]
            half = len(ts) // 2
            fit = np.polyfit(np.log(ts[half:]), np.log(norms[half:]), 1)[0]
            if rate["expected_slope"] != slope:
                raise CheckFailed(f"{name} expected slope {rate['expected_slope']}")
            _close(rate["slope"], fit, 0.0, f"{name} rate slope k={k}", floor=1e-6)
            sandwich = by_key[(name, "sandwich", k, None, None, None)]
            _close(sandwich["lower_constant"], inc, rel, f"{name} lower constant")
            _close(sandwich["upper_envelope"], ratios.max(), rel, f"{name} envelope")
            _close(sandwich["min_ratio"], ratios.min(), rel, f"{name} min ratio")
            heat = by_key[(name, "heat", k, None, None, None)]
            _close(heat["increment_constant"], inc, rel, f"{name} increment")
            _close(heat["heat_constant"], heat_half, rel, f"{name} heat constant")
            _close(heat["heat_full_constant"], heat_full, rel, f"{name} heat full")
        for key, entry in by_key.items():
            if key[0] != name:
                continue
            if key[1] == "vanishing_heat":
                _close(entry["exponent"], n / 4 + key[3] / 2 + key[4] / 2, 0.0,
                       f"{name} vanishing exponent")
            elif key[1] == "vanishing_low_frequency":
                _close(entry["exponent"], n / 4 + key[2] / 2 + key[4] / 2, 0.0,
                       f"{name} vanishing exponent")
            elif key[1] == "property" and not entry["max_deviation"] <= entry["tolerance"]:
                raise CheckFailed(f"{name} property {key[5]} k={key[2]}")
    curves = sorted(out_dir.glob("*.csv"))
    return sum(len(p.read_text(encoding="utf-8").split("\n")) - 2 for p in curves)


# ---------------------------------------------------------------------------
# norm requests


def check_norm(op, out_path):
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    results = payload["results"]
    if len(results) != 1 or results[0]["t"] != op["t"]:
        raise CheckFailed("norm output does not echo the single requested t")
    res = results[0]
    if not (res["error_estimate"] >= 0.0 and res["evaluations"] >= 0):
        raise CheckFailed(f"bad error estimate or evaluation count: {res}")
    rel = CHECK_SLACK * op["tol"]
    ref = oracle.residual_norm(op["data"], op["t"], op["k"], op["region"])
    if ref is not None:
        _close(res["norm"], ref, rel, "norm against the radial integral",
               floor=VALUE_FLOOR)
    pinned = op.get("reference")
    if pinned is not None:
        _close(res["norm"], pinned["value"], rel, "norm against the pinned value",
               floor=VALUE_FLOOR)
    if ref is None and pinned is None:
        raise CheckFailed("no reference for this request")
    return 1


# ---------------------------------------------------------------------------
# solve requests


def check_solve(op, out_path, rng):
    """Check the CSV's header, row count and SOLVE_SPOT_ROWS random rows.

    The file is read one line at a time, so the check holds O(1) lines and
    the process's peak memory stays the program's own.
    """
    n = op["data"]["dimension"]
    header = "t," + ",".join(f"xi{j + 1}" for j in range(n)) + ",re,im\n"
    rows = len(op["ts"]) * op["count"] ** n
    spots = set(rng.integers(1, rows + 1, SOLVE_SPOT_ROWS).tolist())
    u0, u1 = pair_from_config(op["data"])
    sol = SpectralSolution(u0=u0, u1=u1)
    seen = 0
    line = ""
    with open(out_path, "r", encoding="utf-8", newline="\n") as handle:
        if handle.readline() != header:
            raise CheckFailed("solve CSV header is wrong")
        for seen, line in enumerate(handle, 1):
            if seen in spots:
                _check_solve_row(sol, u0, u1, n, seen, line)
    if seen != rows:
        raise CheckFailed(f"solve CSV holds {seen} rows, not {rows}")
    if not line.endswith("\n"):
        raise CheckFailed("solve CSV lacks its final newline")
    return rows


def _check_solve_row(sol, u0, u1, n, i, line):
    vals = [float(x) for x in line.split(",")]
    t, xi, got = vals[0], np.array(vals[1:1 + n]), complex(vals[-2], vals[-1])
    ref = complex(sol.evaluate(t, xi, rep="2.4"))
    # the auto policy divides by 1 - |xi|^2 off the band, which can
    # amplify roundoff by up to 1/(2 * band halfwidth) = 500
    scale = abs(complex(u0.fourier_transform(xi[None])[0])) + abs(
        complex(u1.fourier_transform(xi[None])[0]))
    if not abs(got - ref) <= 1e-12 * abs(ref) + 1e-13 * scale:
        raise CheckFailed(f"solve row {i}: {got!r} against {ref!r}")


# ---------------------------------------------------------------------------
# operations


def prepare(workload, op, op_dir):
    """Write the operation's input files; return (argv, output path)."""
    op_dir.mkdir(parents=True)
    if workload == "campaign":
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(op["config"]), encoding="utf-8")
        out = op_dir / "out"
        return ["report", "--config", str(cfg_path), "--out-dir", str(out)], out
    data = op_dir / "data.json"
    data.write_text(json.dumps(op["data"]), encoding="utf-8")
    if workload == "norm-multid":
        out = op_dir / "norm.json"
        return ["norm", "--data", str(data), "--t", repr(op["t"]),
                "--k", str(op["k"]), "--region", op["region"],
                "--tol", repr(op["tol"]), "--out", str(out)], out
    out = op_dir / "solve.csv"
    grid = f"lin:{op['lo']!r},{op['hi']!r},{op['count']}"
    return ["solve", "--data", str(data), "--t", ",".join(map(repr, op["ts"])),
            "--xi-grid", grid, "--out", str(out)], out


def _output_bytes(out):
    if out.is_dir():
        return sum(p.stat().st_size for p in out.iterdir())
    return out.stat().st_size if out.exists() else 0


class Runner:
    def __init__(self, workload, seed, work, tracer=None):
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.check_rng = np.random.default_rng([seed, 2])
        self.starts = []
        self.latencies = []
        self.warmup = None
        self.rows = []
        self.attempted = 0
        self.failures = []

    def run(self, op, timed=True):
        """Run, time and check one operation; returns (start, seconds)."""
        op_dir = self.work / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        argv, out = prepare(self.workload, op, op_dir)
        self.attempted += 1
        error = None
        rc = None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:            # any failure of the program is counted
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
            self.tracer.add("cli.output_bytes", _output_bytes(out))
        rows = 0
        try:
            if error is None:
                rows = self._check(op, out, rc)
        except CheckFailed as exc:
            error = str(exc)
        except Exception:
            error = traceback.format_exc(limit=3)
        if self.tracer is not None:
            self.tracer.enabled = True
        if error is not None:
            self.failures.append(error)
        if not timed:
            self.warmup = (start, elapsed)
        elif error is None:
            self.starts.append(start)
            self.latencies.append(elapsed)
            self.rows.append(rows)
        shutil.rmtree(op_dir, ignore_errors=True)
        return start, elapsed

    def _check(self, op, out, rc):
        if self.workload == "campaign":
            return check_campaign(op, out, rc)
        if rc != 0:
            raise CheckFailed(f"dampex exited with {rc}")
        if self.workload == "norm-multid":
            return check_norm(op, out)
        return check_solve(op, out, self.check_rng)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--deadline", type=float, default=math.inf,
                        help="wall-clock time.time() at which to stop early")
    args = parser.parse_args(argv)

    if not Path(dampex.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"dampex was imported from {dampex.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = Path(args.work)
    stream = workloads.Stream(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, work, tracer)
    # set-up pays the warm-up call itself, not its input files or its check
    loaded = time.perf_counter()
    runner.run(stream.warmup(), timed=False)
    warm_start, warm = runner.warmup
    # the peak of a fresh process that has served one operation, as a
    # ``dampex`` command pays it; later operations only add heap
    # fragmentation, which varies by 10 % from run to run
    setup_rss = _peak_rss_mb()
    result = {}
    if not args.setup_only:
        if tracer is not None:
            tracer.reset()
        busy = 0.0
        index = 0
        while True:
            if args.ops is not None and index >= args.ops:
                break
            if args.seconds is not None and busy >= args.seconds:
                break
            if time.time() >= args.deadline:
                result["stopped_at_deadline"] = True
                break
            try:
                op = stream.next()
            except workloads.PoolExhausted:
                result["pool_exhausted"] = True
                break
            if tracer is not None:
                tracer.op_id = index
            busy += runner.run(op)[1]
            index += 1
        result.update(latencies=runner.latencies, rows=runner.rows, busy_s=busy)
    SAMPLER.stop()
    result.update(
        setup_s=loaded - _START + warm,
        setup_ref_s=(SAMPLER.rescale(_START, loaded)
                     + SAMPLER.rescale(warm_start, warm_start + warm)),
        latencies_ref=[SAMPLER.rescale(start, start + took) for start, took
                       in zip(runner.starts, runner.latencies)],
        speed_samples=len(SAMPLER.took),
        kernel_p50_s=sorted(SAMPLER.took)[len(SAMPLER.took) // 2],
        attempted=runner.attempted, failed=len(runner.failures),
        failures=runner.failures[:20],
        setup_peak_rss_mb=setup_rss, run_peak_rss_mb=_peak_rss_mb())
    if tracer is not None:
        result["counts"] = tracer.counts
        result["layer_times"] = tracer.layer_times()
        tracer.save(Path(args.out).with_suffix(".spans.npz"))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
