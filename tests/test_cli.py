"""CLI surface: every subcommand exercised end to end."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dampex import cli
from dampex.cli import main
from dampex.initial_data import pair_from_config
from dampex.spectral import SpectralSolution


@pytest.fixture()
def datum_cfg(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"family": "gaussian", "dimension": 1,
                             "scale": 1.0}), encoding="utf-8")
    return str(p)


@pytest.fixture()
def pair_cfg(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(json.dumps({"dimension": 1,
                             "u0": {"family": "gaussian", "scale": 1.0},
                             "u1": {"family": "zero"}}), encoding="utf-8")
    return str(p)


def test_moments_subcommand(datum_cfg, tmp_path, capsys):
    out = tmp_path / "table.json"
    rc = main(["moments", "--data", datum_cfg, "--max-order", "2",
               "--gammas", "0,2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["order"] == 2
    entry = {tuple(e["alpha"]): e for e in payload["entries"]}
    assert entry[(1,)]["exact_zero"] is True
    assert entry[(2,)]["raw"] == pytest.approx(2 * entry[(2,)]["value"])
    assert "2.0" in payload["weighted_norms"]


def test_moments_weighted_norms_on_2d_data(tmp_path):
    data = tmp_path / "g2.json"
    data.write_text(json.dumps({"family": "gaussian", "dimension": 2,
                                "scale": 1.0}), encoding="utf-8")
    out = tmp_path / "table.json"
    assert main(["moments", "--data", str(data), "--max-order", "1",
                 "--gammas", "0,2", "--out", str(out)]) == 0
    norms = json.loads(out.read_text())["weighted_norms"]
    # integral (1 + r)^2 e^{-r^2/4} dx = 4 pi + 8 pi^{3/2} + 16 pi
    assert norms["0.0"] == pytest.approx(4 * np.pi, rel=1e-9)
    assert norms["2.0"] == pytest.approx(20 * np.pi + 8 * np.pi**1.5, rel=1e-9)


@pytest.mark.parametrize("gammas", ["-1", "nan", "inf", "0,-inf"])
def test_moments_rejects_bad_weights_before_writing(datum_cfg, tmp_path, capsys,
                                                    gammas):
    out = tmp_path / "table.json"
    assert main(["moments", "--data", datum_cfg, "--max-order", "1",
                 f"--gammas={gammas}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "--gammas" in captured.err
    assert not out.exists()


def test_solve_subcommand(pair_cfg, tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--data", pair_cfg, "--t", "0.0,1.0",
               "--xi-grid", "lin:-1,1,5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,xi1,re,im"
    assert len(lines) == 1 + 2 * 5


def test_solve_tensorizes_the_grid_per_axis(tmp_path):
    cfg = tmp_path / "pair2.json"
    cfg.write_text(json.dumps({"dimension": 2,
                               "u0": {"family": "gaussian", "scale": 1.0},
                               "u1": {"family": "zero"}}), encoding="utf-8")
    out = tmp_path / "sol2.csv"
    rc = main(["solve", "--data", str(cfg), "--t", "1.0",
               "--xi-grid", "lin:-1,1,3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,xi1,xi2,re,im"
    assert len(lines) == 1 + 3 * 3


def test_solve_forced_representation_errors_on_band(pair_cfg, capsys):
    rc = main(["solve", "--data", pair_cfg, "--t", "1.0",
               "--xi-grid", "lin:-1,1,3", "--rep", "2.2"])
    assert rc == 2
    assert "singular" in capsys.readouterr().err.lower() or rc == 2


def test_solve_regular_representation_covers_band(pair_cfg, tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--data", pair_cfg, "--t", "1.0",
               "--xi-grid", "lin:-1,1,3", "--rep", "2.4", "--out", str(out)])
    assert rc == 0


def _reference_solve_csv(pair, ts, grid, rep):
    """The ``solve`` CSV as the original row loop wrote it: one ``evaluate``
    call per time, every coordinate and value formatted row by row."""
    u0, u1 = pair_from_config(pair)
    sol = SpectralSolution(u0=u0, u1=u1)
    lo, hi, count = grid.partition(":")[2].split(",")
    axis = np.linspace(float(lo), float(hi), int(count))
    grids = np.meshgrid(*([axis] * sol.dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    rows = ["t," + ",".join(f"xi{j + 1}" for j in range(sol.dimension))
            + ",re,im"]
    for t in ts:
        vals = sol.evaluate(t, pts, rep=None if rep == "auto" else rep)
        for p, val in zip(pts, vals):
            coords = ",".join(repr(float(c)) for c in p)
            rows.append(f"{t!r},{coords},{float(val.real)!r},{float(val.imag)!r}")
    return ("\n".join(rows) + "\n").encode("utf-8")


# 0.0 and negative coordinates on every grid; t = 720 drives e^{-t} terms
# into subnormals and e^{-t|xi|^2} to 0.0 away from the origin
_SOLVE_GRIDS = {1: "lin:-2,2,41", 2: "lin:-2,2,11", 3: "lin:-1.5,1.5,7"}
_SOLVE_TIMES = [0.0, 0.37, 5.0, 720.0]


def _solve_pair(dimension, tmp_path):
    """A shifted-Gaussian pair in ``dimension`` and the path of its config."""
    center = [0.4, -0.3, 0.25][:dimension]
    pair = {"dimension": dimension,
            "u0": {"family": "shifted", "center": center,
                   "base": {"family": "gaussian", "scale": 1.0}},
            "u1": {"family": "gaussian", "scale": 0.7, "amplitude": 1.3}}
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(pair), encoding="utf-8")
    return pair, str(cfg)


def _solve_outputs(argv, tmp_path, capsys):
    """The bytes ``main(argv)`` writes to ``--out`` and to stdout."""
    out = tmp_path / "sol.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    return out.read_bytes(), capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("rep", ["auto", "2.4"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_solve_csv_is_byte_identical_to_the_row_loop(dimension, rep, tmp_path,
                                                     capsys):
    pair, cfg = _solve_pair(dimension, tmp_path)
    grid = _SOLVE_GRIDS[dimension]
    argv = ["solve", "--data", cfg, "--t", ",".join(map(repr, _SOLVE_TIMES)),
            "--xi-grid", grid, "--rep", rep]
    expected = _reference_solve_csv(pair, _SOLVE_TIMES, grid, rep)
    rows = [line.split(",") for line in expected.decode().splitlines()[1:]]
    coords = {float(c) for row in rows for c in row[1:1 + dimension]}
    values = [float(x) for row in rows for x in row[-2:]]
    assert 0.0 in coords and min(coords) < 0
    assert any(float(row[-1]) != 0.0 for row in rows)
    assert 0.0 in values
    assert any(0 < abs(v) < sys.float_info.min for v in values)
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)


def _count_forks(monkeypatch):
    """Let ``cmd_solve`` see two usable CPUs and record its forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_solve_child_formats_a_one_point_grid(tmp_path, capsys, monkeypatch):
    # one point: this process's half of each time is empty
    pair, cfg = _solve_pair(2, tmp_path)
    forks = _count_forks(monkeypatch)
    argv = ["solve", "--data", cfg, "--t", "0.0,5.0", "--xi-grid",
            "lin:0.5,0.5,1"]
    expected = _reference_solve_csv(pair, [0.0, 5.0], "lin:0.5,0.5,1", "auto")
    assert expected.count(b"\n") == 3
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)
    assert len(forks) == 2


def test_solve_on_one_cpu_formats_every_row_itself(tmp_path, capsys,
                                                   monkeypatch):
    def refuse():
        raise AssertionError("solve forked on one CPU")

    pair, cfg = _solve_pair(2, tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse)
    argv = ["solve", "--data", cfg, "--t", "0.37,5.0", "--xi-grid",
            _SOLVE_GRIDS[2]]
    expected = _reference_solve_csv(pair, [0.37, 5.0], _SOLVE_GRIDS[2], "auto")
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)


def test_solve_formats_the_rows_of_a_failed_child(tmp_path, capsys,
                                                  monkeypatch):
    pair, cfg = _solve_pair(3, tmp_path)
    forks = _count_forks(monkeypatch)
    me, format_rows = os.getpid(), cli._format_rows

    def parent_only(*args):
        if os.getpid() != me:
            raise RuntimeError("child fails")
        return format_rows(*args)

    monkeypatch.setattr(cli, "_format_rows", parent_only)
    argv = ["solve", "--data", cfg, "--t", "0.37,5.0", "--xi-grid",
            _SOLVE_GRIDS[3]]
    expected = _reference_solve_csv(pair, [0.37, 5.0], _SOLVE_GRIDS[3], "auto")
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_without_times_writes_the_header_alone(pair_cfg, tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--data", pair_cfg, "--t", "",
               "--xi-grid", "lin:-1,1,3", "--rep", "2.2", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"t,xi1,re,im\n"


def test_solve_singular_representation_leaves_no_output(pair_cfg, tmp_path,
                                                        capsys):
    out = tmp_path / "x.csv"
    argv = ["solve", "--data", pair_cfg, "--t", "0.5,1.0",
            "--xi-grid", "lin:-1,1,3", "--rep", "2.2"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("times", ["-1", "nan", "inf", "1.0,-0.5"])
def test_solve_rejects_bad_times_before_writing(pair_cfg, tmp_path, capsys,
                                                times):
    out = tmp_path / "x.csv"
    rc = main(["solve", "--data", pair_cfg, "--t", times,
               "--xi-grid", "lin:-1,1,3", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "bad time" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["0", "-1", "nan", "inf", "10,0"])
def test_norm_rejects_bad_times_before_writing(pair_cfg, tmp_path, capsys,
                                               times):
    out = tmp_path / "norms.csv"
    argv = ["norm", "--data", pair_cfg, "--t", times, "--k", "0"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad time" in captured.err


@pytest.mark.parametrize("grid", ["lin:-1,nan,3", "lin:-inf,1,3"])
def test_solve_rejects_non_finite_grid_bounds(pair_cfg, tmp_path, capsys,
                                              grid):
    out = tmp_path / "x.csv"
    argv = ["solve", "--data", pair_cfg, "--t", "1.0", "--xi-grid", grid]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bounds must be finite" in captured.err


def test_solve_output_failing_under_a_blocked_child_exits_2(tmp_path, capsys,
                                                             monkeypatch):
    # the child's half of a time is far more than a pipe holds, so it is
    # still writing when the output fails; closing the pipe must end it
    class FailingOutput:
        def __init__(self):
            self.writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError("disk full")

    def overdue(signum, frame):
        raise AssertionError("solve still waits for its child")

    _, cfg = _solve_pair(2, tmp_path)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(sys, "stdout", FailingOutput())
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    try:
        assert main(["solve", "--data", cfg, "--t", "0.37,5.0",
                     "--xi-grid", "lin:-2,2,101"]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_grid_too_large_to_hold_exits_2(tmp_path, capsys):
    # 100000**3 points: numpy refuses the 7 PiB array without allocating it
    _, cfg = _solve_pair(3, tmp_path)
    out = tmp_path / "x.csv"
    argv = ["solve", "--data", cfg, "--t", "1.0",
            "--xi-grid", "lin:-1,1,100000"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "100000**3 points" in captured.err
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


@pytest.mark.parametrize("command", ["moments", "solve", "expansion", "norm"])
def test_unwritable_out_exits_2(command, datum_cfg, pair_cfg, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    argv = {"moments": ["--data", datum_cfg, "--max-order", "1"],
            "solve": ["--data", pair_cfg, "--t", "1.0",
                      "--xi-grid", "lin:-1,1,3"],
            "expansion": ["--data", datum_cfg, "--kind", "A", "--k", "1"],
            "norm": ["--data", pair_cfg, "--t", "100", "--k", "0"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert not out.parent.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert str(out) in captured.err and captured.err.count("\n") == 1


def test_report_unreadable_config_or_out_dir_exits_2(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "r")]) == 2
    assert "config error" in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["report", "--out-dir", str(blocker / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_expansion_subcommand_terms_and_canonical(datum_cfg, capsys):
    rc = main(["expansion", "--data", datum_cfg, "--kind", "B", "--k", "2",
               "--print", "canonical"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structurally_zero"] is True
    rc = main(["expansion", "--data", datum_cfg, "--kind", "A", "--k", "2",
               "--print", "terms"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["terms"]


def test_norm_subcommand_json_and_csv(pair_cfg, tmp_path, capsys):
    rc = main(["norm", "--data", pair_cfg, "--t", "100", "--k", "0",
               "--region", "ball:0.5", "--tol", "1e-8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["norm"] > 0
    out = tmp_path / "norms.csv"
    rc = main(["norm", "--data", pair_cfg, "--t", "100,1000", "--k", "0",
               "--region", "full", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,norm")


def test_norm_bad_region_spec(pair_cfg):
    assert main(["norm", "--data", pair_cfg, "--t", "10", "--k", "0",
                 "--region", "cube:1"]) == 2


@pytest.mark.parametrize("region", ["ball:nan", "ext:nan", "annulus:0.1,nan",
                                    "annulus:nan,1"])
def test_norm_rejects_nan_radii(pair_cfg, capsys, region):
    # NaN compared False against every bound: ball:nan used to print the
    # full-space norm and annulus:0.1,nan the exterior norm, with exit 0
    assert main(["norm", "--data", pair_cfg, "--t", "10", "--k", "0",
                 "--region", region]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN" in captured.err


@pytest.mark.parametrize("tol", ["-1", "0", "1", "inf", "nan"])
def test_norm_rejects_bad_tolerance_before_writing(pair_cfg, tmp_path, capsys,
                                                   tol):
    out = tmp_path / "norms.csv"
    argv = ["norm", "--data", pair_cfg, "--t", "10", "--k", "0", "--tol", tol]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "bad --tol" in captured.err


@pytest.mark.parametrize("command, flag, value", [
    ("norm", "--k", "-1"), ("moments", "--max-order", "-1"),
    ("expansion-B", "--k", "-1"), ("expansion-B", "--k", "-2"),
    ("expansion-A", "--k", "-2")])
def test_negative_orders_exit_2(datum_cfg, pair_cfg, capsys, command, flag,
                                value):
    argv = {"norm": ["norm", "--data", pair_cfg, "--t", "10"],
            "moments": ["moments", "--data", datum_cfg],
            "expansion-B": ["expansion", "--data", datum_cfg, "--kind", "B"],
            "expansion-A": ["expansion", "--data", datum_cfg, "--kind", "A"],
            }[command]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"bad {flag} {value}" in captured.err


@pytest.mark.parametrize("command, order", [("moments", "172"),
                                            ("expansion", "180"),
                                            ("norm", "200")])
def test_orders_whose_factorial_overflows_exit_2(datum_cfg, pair_cfg, tmp_path,
                                                 capsys, command, order):
    # the moments divide by alpha!, and 171! is beyond the largest float
    out = tmp_path / "out.json"
    argv = {"moments": ["moments", "--data", datum_cfg, "--max-order", order],
            "expansion": ["expansion", "--data", datum_cfg, "--kind", "A",
                          "--k", order],
            "norm": ["norm", "--data", pair_cfg, "--t", "10", "--k", order],
            }[command]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows a float" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("data, key, value", [
    ({"family": "box", "half_width": 1.0}, "k_values", [200]),
    # property order 171 = k + 2
    ({"family": "box", "half_width": 1.0}, "k_values", [169]),
    ({"family": "gaussian", "scale": 1.0}, "gammas", [171.0])])
def test_report_rejects_moment_orders_that_overflow(tmp_path, capsys, data,
                                                    key, value):
    case = {"name": "c", "data": {"dimension": 1, "u0": data,
                                  "u1": {"family": "zero"}},
            "k_values": [0], "gammas": [0.0],
            "checks": ["rate", "vanishing_heat", "properties"], key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows a float" in captured.err
    assert not out_dir.exists()


def test_moments_that_overflow_a_float_exit_2(tmp_path, capsys):
    # the normalized moments of a half-width-1000 box stay finite to order
    # 120; its raw moments 2 h^(a+1) / (a+1) leave the floats from a = 104 on
    data = tmp_path / "box.json"
    data.write_text(json.dumps({"family": "box", "dimension": 1,
                                "half_width": 1000.0}), encoding="utf-8")
    out = tmp_path / "table.json"
    assert main(["moments", "--data", str(data), "--max-order", "120",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert "overflows a float" in captured.err
    assert not out.exists()


def test_report_runs_wide_data(tmp_path):
    # a half-width-1000 box: its raw moments overflow a float from order
    # about 100 on (its normalized moments do not), and its gap decays once
    # t is well past 1000^2
    case = {"name": "wide", "data": {"dimension": 1,
                                     "u0": {"family": "box", "half_width": 1000.0},
                                     "u1": {"family": "zero"}},
            "gammas": [0.0, 2.0], "checks": ["vanishing_heat", "properties"]}
    cfg = {"vanishing_t_grid": {"t_min": 1e6, "t_max": 1e9, "points": 7},
           "cases": [case]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert [e["status"] for e in summary["entries"]
            if e["check"] == "vanishing_heat"] == ["pass", "pass"]


def test_expansion_a_minus_one_is_the_zero_polynomial(datum_cfg, capsys):
    assert main(["expansion", "--data", datum_cfg, "--kind", "A",
                 "--k", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == -1 and payload["terms"] == []


def test_report_subcommand(tmp_path):
    cfg = {
        "t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
        "cases": [{"name": "g", "data": {
            "dimension": 1,
            "u0": {"family": "gaussian", "scale": 1.0},
            "u1": {"family": "zero"}},
            "k_values": [0], "checks": ["rate", "sandwich"]}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    rc = main(["report", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["passed"] is True


def test_report_nonzero_exit_on_failure(tmp_path):
    cfg = {
        "rate_tolerance": 1e-12,
        "t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
        "cases": [{"name": "g", "data": {
            "dimension": 1,
            "u0": {"family": "gaussian", "scale": 1.0},
            "u1": {"family": "zero"}},
            "k_values": [0], "checks": ["rate"]}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["report", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "r")])
    assert rc == 1


def test_config_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["moments", "--data", str(bad), "--max-order", "1"]) == 2


@pytest.mark.parametrize("command, datum, word", [
    # the bare NaN token that Python's json reads
    ("solve", '{"dimension": 1, "u0": {"family": "gaussian", "scale": NaN}, '
              '"u1": {"family": "zero"}}', "scale"),
    # data whose own "dimension" is not the one they build
    ("moments", json.dumps({"family": "shifted", "dimension": 2,
                            "center": [0.5], "base": {"family": "gaussian",
                                                      "dimension": 1}}),
     "dimension"),
    ("moments", json.dumps({"family": "sum", "dimension": 2, "terms": [
        {"family": "gaussian", "dimension": 1},
        {"family": "box", "dimension": 1}]}), "dimension")],
    ids=["solve-nan-scale", "moments-shifted", "moments-sum"])
def test_bad_datum_exits_2_before_output(tmp_path, capsys, command, datum,
                                         word):
    data = tmp_path / "datum.json"
    data.write_text(datum, encoding="utf-8")
    argv = {"solve": ["--t", "1.0", "--xi-grid", "lin:-1,1,3"],
            "moments": ["--max-order", "1"]}[command]
    assert main([command, "--data", str(data), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert word in captured.err


@pytest.mark.parametrize("where, key, value", [
    ("case", "k_values", ["x"]), ("case", "k_values", [1.5]),
    ("case", "k_values", [-1]), ("case", "k_values", 2),
    ("case", "gammas", [-1]), ("case", "gammas", [float("nan")]),
    ("case", "ells", ["x"]), ("case", "ells", [float("inf")]),
    ("top", "seed", "abc"), ("top", "seed", 1.5), ("top", "seed", True),
    ("top", "seed", -1), ("top", "quad_tol", -1), ("top", "quad_tol", 0),
    ("top", "rate_tolerance", float("nan")),
    ("top", "property_tolerance", float("inf")),
    ("top", "decay_fraction", 5), ("top", "decay_fraction", 0),
    ("top", "t_grid", {"t_min": 100.0, "t_max": 1e3, "points": 2.5}),
    ("top", "vanishing_t_grid", {"t_min": 1.0, "t_max": float("nan"),
                                 "points": 3}),
    ("top", "t_grid", {"t_min": float("inf"), "t_max": 1e3, "points": 3}),
    # keys outside config-schema.json
    ("top", "quad_tolerance", 1e-9), ("case", "k_value", [1]),
    ("pair", "u2", {"family": "zero"}),
    # datum values that are not JSON numbers, or not finite floats (Python's
    # json reads NaN, Infinity and integers beyond the floats)
    ("datum", "scale", "1.0"), ("datum", "amplitude", True),
    ("datum", "scale", float("nan")), ("datum", "amplitude", float("inf")),
    pytest.param("datum", "amplitude", 10 ** 400, id="datum-amplitude-1e400"),
    pytest.param("shifted", "center", [float("nan")], id="shifted-center-nan"),
    ("pair", "dimension", True)])
def test_report_rejects_bad_config_values_before_output(tmp_path, capsys,
                                                        where, key, value):
    case = {"name": "g", "data": {"dimension": 1,
                                  "u0": {"family": "gaussian", "scale": 1.0},
                                  "u1": {"family": "zero"}},
            "k_values": [0], "gammas": [0.0], "ells": [0.0],
            "checks": ["rate", "vanishing_heat", "properties"]}
    cfg = {"t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
           "vanishing_t_grid": {"t_min": 1.0, "t_max": 1e2, "points": 3},
           "cases": [case]}
    if where == "shifted":
        case["data"]["u1"] = {"family": "shifted", "center": [0.5],
                              "base": {"family": "gaussian", "scale": 0.5}}
    {"top": cfg, "case": case, "pair": case["data"],
     "datum": case["data"]["u0"], "shifted": case["data"]["u1"]}[where][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert key in captured.err
    assert not out_dir.exists()


def test_main_parses_with_the_parser_built_at_import(pair_cfg, tmp_path,
                                                     monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    parser = cli.PARSER
    monkeypatch.setattr(cli, "build_parser", refuse)
    for k in ("0", "1", "0"):
        assert main(["norm", "--data", pair_cfg, "--t", "10", "--k", k,
                     "--out", str(tmp_path / "n.json")]) == 0
    assert cli.PARSER is parser


def test_calls_in_one_process_write_what_each_writes_alone(tmp_path):
    """norm -> solve -> norm with different flags: no default or value of
    one call leaks into the next."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "dimension": 2,
        "u0": {"family": "shifted", "center": [0.4, -0.3],
               "base": {"family": "gaussian", "scale": 0.8}},
        "u1": {"family": "box", "half_width": 0.7}}), encoding="utf-8")
    calls = [
        ["norm", "--data", str(pair), "--t", "20,50", "--k", "1",
         "--region", "ball:0.5", "--tol", "1e-7", "--out", "first.csv"],
        ["solve", "--data", str(pair), "--t", "0.5", "--xi-grid",
         "lin:-2,2,7", "--rep", "2.4", "--out", "grid.csv"],
        ["norm", "--data", str(pair), "--t", "30", "--k", "0",
         "--out", "second.json"],
    ]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    for argv in calls:
        out = argv[-1]
        assert main(argv[:-1] + [str(together / out)]) == 0
        subprocess.run([sys.executable, "-m", "dampex.cli", *argv[:-1],
                        str(alone / out)], env=env, check=True)
        assert (together / out).read_bytes() == (alone / out).read_bytes(), out
