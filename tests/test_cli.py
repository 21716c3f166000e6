"""CLI surface: every subcommand exercised end to end."""

import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dampex import cli
from dampex.cli import main
from dampex.experiments import default_config
from dampex.initial_data import pair_from_config
from dampex.quadrature import QuadResult
from dampex.spectral import REPRESENTATIONS, SpectralSolution
from oracles import format_rows_row_loop


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


def test_weighted_norms_of_sign_changing_data_finish_or_fail_cleanly(
        tmp_path, capsys):
    # v = u0 + u1 changes sign along a curve that no axis breakpoint
    # follows, and the 1-D rule stalls near it; a finite norm, or the stall
    # as a clean error with nothing written, are the two outcomes
    data = tmp_path / "pair.json"
    data.write_text(json.dumps({
        "dimension": 2, "u0": {"family": "gaussian", "scale": 1.0},
        "u1": {"family": "gaussian_monomial", "exponents": [1, 0],
               "scale": 0.8, "amplitude": 1.5}}), encoding="utf-8")
    out = tmp_path / "F.json"
    rc = main(["moments", "--data", str(data), "--max-order", "2",
               "--gammas", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    if rc == 0:
        assert captured.err == ""
        assert math.isfinite(json.loads(out.read_text())["weighted_norms"]["0.0"])
    else:
        assert rc == 2
        assert captured.err.startswith("error: 1-D quadrature stalled on [")
        assert not out.exists()


def test_moments_name_an_integrand_that_is_not_finite(tmp_path, capsys):
    # (1 + r)^400 e^{-r^2/4} peaks near r = 19 at about e^{1100}: the
    # weighted integrand leaves the floats, which no bisection can mend
    data = tmp_path / "g.json"
    data.write_text(json.dumps({"family": "gaussian", "dimension": 2,
                                "scale": 1.0}), encoding="utf-8")
    out = tmp_path / "F.json"
    rc = main(["moments", "--data", str(data), "--max-order", "0",
               "--gammas", "400", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: 1-D quadrature: the integrand is not finite on [")
    assert "stalled" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["moments", "report"])
def test_an_integrand_that_leaves_the_floats_prints_one_error_line(tmp_path,
                                                                    command):
    # numpy warns of the overflow on the way to the program's own error;
    # stderr holds that error line alone, in a process of its own (pytest
    # would catch the warnings of an in-process call)
    gauss = {"family": "gaussian", "dimension": 2, "scale": 1.0}
    if command == "moments":
        data = tmp_path / "g.json"
        data.write_text(json.dumps(gauss), encoding="utf-8")
        argv = ["moments", "--data", str(data), "--max-order", "0",
                "--gammas", "400"]
    else:
        # |xi|^400 e^{-t |xi|^2} at t = 1 peaks at about e^{860}
        config = default_config()
        config["cases"] = [{**config["cases"][0], "ells": [400]}]
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["report", "--config", str(path), "--out-dir",
                str(tmp_path / "out")]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "dampex.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith(
        "error: 1-D quadrature: the integrand is not finite on [")
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")


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
        vals = (sol.evaluate(t, pts) if rep == "auto"
                else sol.evaluate(t, pts, rep=rep))
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


# sha256 of the solve CSV of a phase-free pair at 0, 0.37, 5 and 720 on
# lin:-2.1,2.1,15, which holds xi = 0 and |xi| > 1; forms 2.1 and 2.3 write
# -0.0 in the im column.  evaluate takes the real transforms as complex, so
# every form keeps these bytes
_PINNED_SOLVE_SHA256 = {
    (1, "2.1"): "e247b5b95a522c42b34a70f5c26af8daf0234307aa2d08de69d5557c27663709",
    (1, "2.2"): "d8f46dd49ddd4d68c5c5a3210c75fb1285e42c40737bb3f2a7cceb3f5d64b776",
    (1, "2.3"): "01fbdddd40a533dbc46f3026703f2d1be422693068d4c030386d5d5a39ac8a14",
    (1, "2.4"): "b3556fe446aa237850579acc5673147a78ca172ac24333b76231120c937a224a",
    (2, "2.1"): "6d5bd6837f34727ae0228d1878f68dc04b32820b1aacb21b0d5adcc08c6cfcf3",
    (2, "2.2"): "a867a8f8bb558b5356f54e08f98ee774d5d7817b82d9f0144169ca1d3baf8d0d",
    (2, "2.3"): "0a46364a7c3ffd9106bb0f650d9d3c7c0157944cd96dd45630cc2346c5a9019e",
    (2, "2.4"): "1ae6b5e7a898c8ce13b547fb36c522b0cdb780ea5662e1ea8854c1197456c5a3",
}


@pytest.mark.parametrize("rep", REPRESENTATIONS)
@pytest.mark.parametrize("dimension", [1, 2])
def test_solve_bytes_of_phase_free_data_are_pinned(dimension, rep, tmp_path):
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({
        "dimension": dimension,
        "u0": {"family": "gaussian", "scale": 0.8, "amplitude": 1.1},
        "u1": {"family": "box", "half_width": 0.7, "amplitude": -0.6}}),
        encoding="utf-8")
    out = tmp_path / "sol.csv"
    assert main(["solve", "--data", str(cfg), "--t", "0.0,0.37,5.0,720.0",
                 "--xi-grid", "lin:-2.1,2.1,15", "--rep", rep,
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (b",-0.0\n" in data) == (rep in ("2.1", "2.3"))
    assert (hashlib.sha256(data).hexdigest()
            == _PINNED_SOLVE_SHA256[dimension, rep])


def _count_forks(monkeypatch):
    """Let ``cmd_solve`` see two usable CPUs and record its forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_a_forked_one_point_grid_writes_the_reference_bytes(tmp_path, capsys,
                                                           monkeypatch):
    # one point: the one chunk of each time is this process's, and the
    # child's share is empty; each of the two outputs still forks once
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
    # 343 rows a time in chunks of 64, so the child's share is 3 chunks
    monkeypatch.setattr(cli, "CHUNK_ROWS", 64)
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


def _phase_free_pair(dimension, tmp_path):
    """A Gaussian and box pair, whose transforms are real and repeat their
    values, and the path of its config."""
    pair = {"dimension": dimension,
            "u0": {"family": "gaussian", "scale": 0.8, "amplitude": 1.1},
            "u1": {"family": "box", "half_width": 0.7, "amplitude": -0.6}}
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(pair), encoding="utf-8")
    return pair, str(cfg)


def _grid_at_chunk_edge(dimension, rows, monkeypatch):
    """A grid of one row per time, or with ``rows`` ("C-1", "C", "C+1" or
    "2C+1") rows per time in chunks of C rows.  1-D grids meet the module's
    CHUNK_ROWS; 2-D and 3-D grids of 5 points an axis (25 and 125 rows)
    meet a CHUNK_ROWS cut to them, and evaluate 7 points at a time."""
    if rows == "1":
        return "lin:0.3,0.3,1"
    if dimension == 1:
        chunk = cli.CHUNK_ROWS
        count = {"C-1": chunk - 1, "C": chunk, "C+1": chunk + 1,
                 "2C+1": 2 * chunk + 1}[rows]
        return f"lin:-2,2,{count}"
    size = 5 ** dimension
    monkeypatch.setattr(cli, "CHUNK_ROWS", {
        "C-1": size + 1, "C": size, "C+1": size - 1,
        "2C+1": (size - 1) // 2}[rows])
    monkeypatch.setattr(cli, "CHUNK_POINTS", 7)
    return "lin:-2,2,5"


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "one-cpu"])
@pytest.mark.parametrize("phase", [True, False], ids=["complex", "phase-free"])
@pytest.mark.parametrize("rows", ["1", "C-1", "C", "C+1", "2C+1"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_solve_bytes_at_chunk_edges(dimension, rows, phase, forked, tmp_path,
                                    capsys, monkeypatch):
    pair, cfg = (_solve_pair if phase else _phase_free_pair)(dimension,
                                                             tmp_path)
    grid = _grid_at_chunk_edge(dimension, rows, monkeypatch)
    if forked:
        forks = _count_forks(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = []
    ts = [0.0, 0.37, 5.0]
    argv = ["solve", "--data", cfg, "--t", ",".join(map(repr, ts)),
            "--xi-grid", grid]
    expected = _reference_solve_csv(pair, ts, grid, "auto")
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)
    assert len(forks) == 2 * forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sent", [0, 1])
def test_solve_writes_the_rows_of_a_child_that_dies_midway(sent, tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # 7 x 7 rows a time in chunks of 10: the child takes chunks 1 and 3 of
    # each of the two times, and dies after sending its 0th chunk (within
    # the first time) or its 1st (between the times)
    pair, cfg = _solve_pair(2, tmp_path)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 10)
    me, format_rows = os.getpid(), cli._format_rows
    sent_by_child, calls = [], []

    def dying(*args):
        if os.getpid() == me:
            calls.append(1)
        for text in format_rows(*args):
            if os.getpid() != me:
                if len(sent_by_child) > sent:
                    raise RuntimeError("child dies")
                sent_by_child.append(1)
            yield text

    monkeypatch.setattr(cli, "_format_rows", dying)
    argv = ["solve", "--data", cfg, "--t", "0.37,5.0", "--xi-grid",
            "lin:-1.5,1.5,7"]
    expected = _reference_solve_csv(pair, [0.37, 5.0], "lin:-1.5,1.5,7",
                                    "auto")
    assert _solve_outputs(argv, tmp_path, capsys) == (expected, expected)
    assert len(forks) == 2
    # per run: this process's rows of each time, then each chunk the child
    # did not send, formatted on its own
    assert len(calls) == 2 * (2 + 4 - (sent + 1))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_chunk_is_copied_as_bytes_after_the_text_before_it(tmp_path):
    read_end, write_end = os.pipe()
    chunk = b"0.37,1.0,2.0,3.0\n"
    # a whole chunk, then a prefix that promises more than follows
    os.write(write_end, len(chunk).to_bytes(8, "little") + chunk
             + (40).to_bytes(8, "little") + chunk)
    os.close(write_end)
    out = tmp_path / "sol.csv"
    buffer = bytearray(4)
    with open(read_end, "rb") as pipe, \
            open(out, "w", encoding="utf-8") as handle:
        handle.write("t,xi1,re,im\n")
        assert cli._copy_chunk(pipe, handle, buffer)
        handle.write("5.0,")
        # the short chunk and then EOF write nothing
        assert not cli._copy_chunk(pipe, handle, buffer)
        assert not cli._copy_chunk(pipe, handle, buffer)
    assert out.read_bytes() == b"t,xi1,re,im\n" + chunk + b"5.0,"
    assert len(buffer) == 40


def test_solve_forked_into_an_in_memory_output(tmp_path, monkeypatch):
    # an output without a byte layer takes the child's chunks as text
    pair, cfg = _solve_pair(2, tmp_path)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 10)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(["solve", "--data", cfg, "--t", "0.37,5.0", "--xi-grid",
                 "lin:-1.5,1.5,7"]) == 0
    assert sys.stdout.getvalue().encode() == _reference_solve_csv(
        pair, [0.37, 5.0], "lin:-1.5,1.5,7", "auto")
    assert len(forks) == 1


def test_solve_holds_its_values_and_a_bounded_text(tmp_path, monkeypatch):
    # the benchmark's warm-up request, 46**3 points at three times, on the
    # forked path: the values take 4.5 MiB, and with the text of this
    # process's points and a few chunks the peak stays within 20 MiB; a
    # half-block of text per time took it to 31 MiB
    cfg = tmp_path / "radial.json"
    cfg.write_text(json.dumps({
        "dimension": 3,
        "u0": {"family": "gaussian", "scale": 0.86, "amplitude": 1.3},
        "u1": {"family": "gaussian", "scale": 0.69, "amplitude": 1.19}}),
        encoding="utf-8")
    forks = _count_forks(monkeypatch)
    out = tmp_path / "sol.csv"
    tracemalloc.start()
    try:
        assert main(["solve", "--data", str(cfg), "--t", "0.48,3.9,42.0",
                     "--xi-grid", "lin:-2.1,2.1,46", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert peak <= 20 * 2 ** 20
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == 1 + 3 * 46 ** 3


def _row(re, im):
    """The complex row with these bits in its re and im parts."""
    row = np.empty(len(re), dtype=complex)
    row.real, row.imag = re, im
    return row


_NANS = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                 dtype=np.uint64).view(np.float64)
# (re, im) of each crafted block, and whether at most half of its values are
# distinct, so each distinct one is formatted once
_CRAFTED_ROWS = {
    "all-equal": ([0.5] * 6, [0.5] * 6, True),
    "all-distinct": ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], False),
    "half-distinct": ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], True),
    "one-over-half": ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 5.0], False),
    "signed-zeros": ([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0], True),
    "nan-payloads": ([_NANS[0], _NANS[1], _NANS[0]],
                     [_NANS[1], _NANS[0], _NANS[1]], True),
    "extremes": ([np.inf, -np.inf, 5e-324, 1e16, 1e-05],
                 [1e-05, 1e16, -5e-324, -np.inf, np.inf], False),
    "one-point": ([0.25], [-0.0], False),
    "empty": ([], [], True),
}


@pytest.mark.parametrize("name", sorted(_CRAFTED_ROWS))
def test_format_rows_writes_the_bytes_of_the_row_loop(name, monkeypatch):
    re, im, shared = _CRAFTED_ROWS[name]
    row = _row(re, im)
    coords = [f"{0.5 * j!r},{-0.5 * j!r}" for j in range(len(re))]
    assert np.array_equal(row.real.view(np.int64), np.array(re).view(np.int64))
    reprs = []
    monkeypatch.setattr(cli, "repr", lambda v: reprs.append(v) or repr(v),
                        raising=False)
    text = "".join(cli._format_rows(0.37, coords, row))
    assert text == format_rows_row_loop(0.37, coords, row)
    distinct = len(set(np.array(re + im).view(np.int64).tolist()))
    # the head, and each distinct value on the shared-text branch
    assert len(reprs) == (1 + distinct * shared if coords else 0)
    assert (text.count("\n"), text.count("nan")) == (
        len(re), 2 * len(re) * (name == "nan-payloads"))


def test_solve_formats_each_distinct_value_once(tmp_path, monkeypatch):
    # a radial pair repeats each value at the points of one radius; the
    # shifted pair of _solve_pair repeats too few and takes %r
    radial = {"dimension": 2, "u0": {"family": "gaussian", "scale": 1.0},
              "u1": {"family": "gaussian", "scale": 0.7, "amplitude": 1.3}}
    cfg = tmp_path / "radial.json"
    cfg.write_text(json.dumps(radial), encoding="utf-8")
    shifted, shifted_cfg = _solve_pair(2, tmp_path)
    grid, ts = "lin:-2,2,41", [0.37, 5.0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    reprs = []
    monkeypatch.setattr(cli, "repr", lambda v: reprs.append(v) or repr(v),
                        raising=False)
    rows = len(ts) * 41 ** 2
    for pair, path, shared in ((radial, str(cfg), True),
                               (shifted, shifted_cfg, False)):
        u0, u1 = pair_from_config(pair)
        vals = SpectralSolution(u0=u0, u1=u1).evaluate(
            np.asarray(ts), cli._parse_xi_grid(grid, 2)[1], rep="2.4")
        distinct = sum(np.unique(np.stack([row.real, row.imag], axis=-1)
                                 .view(np.int64)).size for row in vals)
        reprs.clear()
        out = tmp_path / "sol.csv"
        assert main(["solve", "--data", path, "--t", "0.37,5.0",
                     "--xi-grid", grid, "--out", str(out)]) == 0
        assert out.read_bytes() == _reference_solve_csv(pair, ts, grid, "auto")
        # 41 axis values, one head per time and, on the shared-text branch,
        # each distinct value of each time
        assert len(reprs) == 41 + len(ts) + distinct * shared
        assert (4 * distinct < 2 * rows) == shared


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_solve_on_an_empty_grid_writes_the_header_alone(dimension, forked,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    _, cfg = _solve_pair(dimension, tmp_path)
    if forked:
        forks = _count_forks(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = []
    header = ("t," + ",".join(f"xi{j + 1}" for j in range(dimension))
              + ",re,im\n").encode()
    argv = ["solve", "--data", cfg, "--t", "0.0,0.37", "--xi-grid",
            "lin:-1,1,0"]
    assert _solve_outputs(argv, tmp_path, capsys) == (header, header)
    assert len(forks) == 2 * forked


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
    # the child's chunk of a time, 4,096 rows, is far more than a pipe
    # holds, so it is still writing when the output fails; closing the pipe
    # must end it
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


def test_solve_axis_too_large_to_hold_exits_2(tmp_path, capsys):
    # 1e15 points on the line alone: 7.1 PiB, beyond the 47-bit address
    # space, so numpy refuses the axis itself without allocating it
    _, cfg = _solve_pair(1, tmp_path)
    out = tmp_path / "x.csv"
    assert main(["solve", "--data", cfg, "--t", "1.0", "--xi-grid",
                 "lin:-1,1,1000000000000000", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert "1000000000000000**1 points" in captured.err


def _assert_too_large(argv, tmp_path, capsys, points):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert f"cannot hold its {points} points" in captured.err
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


def test_solve_values_too_large_to_hold_exit_2(tmp_path, capsys,
                                               monkeypatch):
    # the values of every time are allocated before the output is opened
    _, cfg = _solve_pair(2, tmp_path)
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if shape == (2, 25):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    _assert_too_large(["solve", "--data", cfg, "--t", "0.37,5.0",
                       "--xi-grid", "lin:-1,1,5"], tmp_path, capsys, "5**2")


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "one-cpu"])
def test_solve_text_too_large_to_hold_exits_2(forked, tmp_path, capsys,
                                              monkeypatch):
    # this process's point text is built before the output is opened; a
    # child that cannot hold its own leaves, and is waited for
    def refuse(*args):
        raise MemoryError

    _, cfg = _solve_pair(2, tmp_path)
    if forked:
        forks = _count_forks(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = []
    monkeypatch.setattr(cli, "_grid_coordinates", refuse)
    _assert_too_large(["solve", "--data", cfg, "--t", "0.37,5.0",
                       "--xi-grid", "lin:-1,1,5"], tmp_path, capsys, "5**2")
    assert len(forks) == 2 * forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("text", ["[]", "null"])
def test_report_rejects_a_config_that_is_no_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert not out_dir.exists()


def test_report_has_no_seed_flag(tmp_path, capsys):
    # no check draws random points; the config's "seed" is only echoed
    with pytest.raises(SystemExit) as exit_:
        main(["report", "--out-dir", str(tmp_path / "r"), "--seed", "1"])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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
    [row] = payload["results"]
    assert row["norm"] > 0
    # every row carries the panel engine's stall flag, as JSON and CSV
    assert set(row) == {"t", "norm", "error_estimate", "evaluations", "stalled"}
    assert row["stalled"] is False
    out = tmp_path / "norms.csv"
    rc = main(["norm", "--data", pair_cfg, "--t", "100,1000", "--k", "0",
               "--region", "full", "--out", str(out)])
    assert rc == 0
    header, *lines = out.read_text().splitlines()
    assert header == "t,norm,error_estimate,evaluations,stalled"
    assert [line.split(",")[-1] for line in lines] == ["false", "false"]


def test_norm_reports_an_accepted_stall(pair_cfg, tmp_path, monkeypatch):
    # a norm the panel engine accepted after its budget ran out
    monkeypatch.setattr(cli, "residual_norm", lambda *args, **kwargs:
                        QuadResult(0.5, 1e-9, 4200, stalled=True))
    args = ["norm", "--data", pair_cfg, "--t", "3", "--k", "0"]
    assert main(args + ["--out", str(tmp_path / "norms.csv")]) == 0
    assert (tmp_path / "norms.csv").read_text() == (
        "t,norm,error_estimate,evaluations,stalled\n3.0,0.5,1e-09,4200,true\n")
    assert main(args + ["--out", str(tmp_path / "norms.json")]) == 0
    payload = json.loads((tmp_path / "norms.json").read_text())
    assert payload["results"] == [{"t": 3.0, "norm": 0.5, "error_estimate": 1e-9,
                                   "evaluations": 4200, "stalled": True}]


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


def _sum(*terms):
    return {"family": "sum", "terms": list(terms)}


@pytest.mark.parametrize("u0", [
    _sum(_sum({"family": "gaussian"}, {"family": "box"}),
         {"family": "gaussian", "scale": 0.5}),
    _sum({"family": "gaussian"},
         _sum({"family": "box"}, _sum({"family": "gaussian", "scale": 0.5})))],
    ids=["sum-first", "sum-last-nested-twice"])
def test_nested_sums_write_the_bytes_of_their_flat_terms(tmp_path, u0):
    # a sum among a sum's terms contributes its own terms: every subcommand
    # writes what the flat sum of the same terms writes
    flat = _sum({"family": "gaussian"}, {"family": "box"},
                {"family": "gaussian", "scale": 0.5})
    outputs = {}
    for label, datum in (("nested", u0), ("flat", flat)):
        run = tmp_path / label
        run.mkdir()
        pair = {"dimension": 1, "u0": datum, "u1": {"family": "zero"}}
        data = run / "pair.json"
        data.write_text(json.dumps(pair), encoding="utf-8")
        cfg = run / "cfg.json"
        cfg.write_text(json.dumps({
            "t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
            "cases": [{"name": "sum", "data": pair, "k_values": [0, 2]}]}),
            encoding="utf-8")
        for argv in (["moments", "--data", str(data), "--max-order", "3",
                      "--gammas", "0,1", "--out", "moments.json"],
                     ["solve", "--data", str(data), "--t", "0.5,10",
                      "--xi-grid", "lin:-2,2,9", "--out", "solve.csv"],
                     ["expansion", "--data", str(data), "--kind", "A",
                      "--k", "2", "--out", "expansion.json"],
                     ["norm", "--data", str(data), "--t", "10,100", "--k", "1",
                      "--out", "norm.json"],
                     ["report", "--config", str(cfg), "--out-dir", "report"]):
            assert main(argv[:-1] + [str(run / argv[-1])]) == 0, argv[0]
        written = {path.relative_to(run).as_posix(): path.read_bytes()
                   for path in run.rglob("*") if path.is_file()}
        # the summary echoes the config, which spells the data as given
        summary = json.loads(written.pop("report/summary.json"))
        del written["pair.json"], written["cfg.json"]
        outputs[label] = written, summary["entries"]
    assert outputs["nested"] == outputs["flat"]
    assert sorted(outputs["flat"][0]) == [
        "expansion.json", "moments.json", "norm.json",
        *(f"report/{label}_k{k}_sum.csv" for label in ("norms", "ratios")
          for k in (0, 2)), "solve.csv"]


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
    ("pair", "dimension", True),
    # JSON integers beyond the floats, which float() cannot convert
    *(pytest.param(where, key, value, id=f"{key}-1e400") for where, key, value in [
        ("case", "gammas", [10 ** 400]), ("case", "ells", [10 ** 400]),
        ("top", "quad_tol", 10 ** 400), ("top", "rate_tolerance", 10 ** 400),
        ("top", "property_tolerance", 10 ** 400),
        ("top", "decay_fraction", 10 ** 400),
        ("top", "t_grid", {"t_min": 10 ** 400, "t_max": 10 ** 401, "points": 3}),
        ("top", "vanishing_t_grid", {"t_min": 1.0, "t_max": 10 ** 400,
                                     "points": 3})]),
    # time grids too large to build: beyond numpy's sizes, or its memory
    pytest.param("top", "t_grid", {"t_min": 100.0, "t_max": 1e3, "points": 1e300},
                 id="t_grid-points-1e300"),
    pytest.param("top", "t_grid", {"t_min": 100.0, "t_max": 1e3,
                                   "points": 10 ** 13}, id="t_grid-points-1e13"),
    # a case name is part of its curve file names
    ("case", "name", 5), pytest.param("case", "name", "a/b", id="case-name-slash"),
    pytest.param("case", "name", "a\0b", id="case-name-nul"),
    pytest.param("case", "name", "n" * 300, id="case-name-300-chars"),
    pytest.param("case", "name", "a\ud800b", id="case-name-lone-surrogate")])
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


def test_report_rejects_repeated_case_names_before_output(tmp_path, capsys):
    # the second case's curve files would overwrite the first's
    case = {"name": "g", "data": {"dimension": 1,
                                  "u0": {"family": "gaussian", "scale": 1.0},
                                  "u1": {"family": "zero"}},
            "k_values": [0], "checks": ["rate"]}
    cfg = {"t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
           "cases": [case, case]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "case names must differ" in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("name, checks, code", [
    ("é" * 120 + "x", ["rate", "sandwich"], 0),
    ("é" * 120 + "xx", ["rate", "sandwich"], 2),
    ("n" * 300, ["heat", "properties"], 0)],
    ids=["255-bytes", "256-bytes", "no-curve-file"])
def test_curve_file_names_may_take_255_bytes(tmp_path, capsys, name, checks,
                                             code):
    # ratios_k0_<name>.csv, the longest curve file, at 255 bytes and at 256
    # (two bytes for each "é"); checks without curves write no such file
    cfg = {"t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
           "cases": [{"name": name, "data": {
               "dimension": 1, "u0": {"family": "gaussian", "scale": 1.0},
               "u1": {"family": "zero"}},
               "k_values": [0], "checks": checks}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == code
    if code == 2:
        assert "fit 255 bytes" in capsys.readouterr().err
        assert not out_dir.exists()
    elif "rate" in checks:
        longest = out_dir / f"ratios_k0_{name}.csv"
        assert len(os.fsencode(longest.name)) == 255 and longest.exists()
    else:
        assert [p.name for p in out_dir.iterdir()] == ["summary.json"]


@pytest.mark.parametrize("text", [b'{"family": "gaussian", "dimension": 1, '
                                  b'"amplitude": 1' + b"0" * 5000 + b"}",
                                  b'{"family": "gaussian\xff"}'],
                         ids=["integer-of-5001-digits", "bad-utf-8"])
def test_unreadable_json_exits_2(tmp_path, capsys, text):
    # json raises ValueError on both, not JSONDecodeError
    data = tmp_path / "datum.json"
    data.write_bytes(text)
    assert main(["moments", "--data", str(data), "--max-order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read JSON config" in captured.err


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
