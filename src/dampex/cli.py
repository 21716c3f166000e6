"""Command-line interface: moments, solve, expansion, norm, report."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DampexError
from .expansion import build_expansion
from .experiments import default_config, load_config, run_report
from .initial_data import (datum_or_pair_sum, moment_table, pair_from_config,
                           weighted_l1_norm)
from .norms import FrequencyRegion, residual_norm
from .spectral import REPRESENTATIONS, SpectralSolution


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_floats(text):
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def _parse_times(text, positive):
    """The ``--t`` list: finite times, each > 0 if ``positive`` else >= 0."""
    ts = _parse_floats(text)
    for t in ts:
        if not (math.isfinite(t) and (t > 0 if positive else t >= 0)):
            raise ConfigError(f"bad time {t!r} in {text!r}: times must be "
                              f"finite and {'> 0' if positive else '>= 0'}")
    return ts


def _check_order(value, least, flag):
    if value < least:
        raise ConfigError(f"bad {flag} {value}: must be >= {least}")


def _parse_region(text, dimension):
    kind, _, rest = text.partition(":")
    try:
        if kind == "full":
            return FrequencyRegion.full(dimension)
        if kind == "ball":
            return FrequencyRegion.ball(float(rest), dimension)
        if kind == "ext":
            return FrequencyRegion.exterior(float(rest), dimension)
        if kind == "annulus":
            a, b = (float(x) for x in rest.split(","))
            return FrequencyRegion.annulus(a, b, dimension)
    except ValueError as exc:
        raise ConfigError(f"bad region spec {text!r}: {exc}") from exc
    raise ConfigError(f"bad region spec {text!r}; use "
                      "ball:r | annulus:a,b | ext:r | full")


def _parse_xi_grid(text, dimension):
    kind, _, rest = text.partition(":")
    if kind != "lin":
        raise ConfigError(f"bad xi grid {text!r}; use lin:lo,hi,count")
    try:
        lo, hi, count = rest.split(",")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("bounds must be finite")
        axis = np.linspace(lo, hi, int(count))
    except ValueError as exc:
        raise ConfigError(f"bad xi grid {text!r}: {exc}") from exc
    try:
        grids = np.meshgrid(*([axis] * dimension), indexing="ij")
        return axis, np.stack([g.ravel() for g in grids], axis=-1)
    except MemoryError as exc:
        raise ConfigError(f"bad xi grid {text!r}: cannot hold its "
                          f"{axis.size}**{dimension} points") from exc


def _grid_coordinates(axis, dimension):
    """The CSV text of every point of ``_parse_xi_grid``, in its ``ij`` order
    (first axis slowest).  Each axis value is formatted once."""
    values = [repr(c) for c in axis.tolist()]
    coords = values
    for _ in range(dimension - 1):
        coords = [f"{head},{c}" for head in coords for c in values]
    return coords


def cmd_moments(args):
    _check_order(args.max_order, 0, "--max-order")
    gammas = _parse_floats(args.gammas) if args.gammas else []
    for g in gammas:
        if not (math.isfinite(g) and g >= 0):
            raise ConfigError(f"bad weight {g!r} in --gammas {args.gammas!r}: "
                              "weights must be finite and >= 0")
    datum = datum_or_pair_sum(load_config(args.data))
    table = moment_table(datum, args.max_order)
    norms = {g: weighted_l1_norm(datum, g) for g in gammas}
    entries = [{"alpha": list(alpha),
                "value": table.moment(alpha),
                "raw": table.raw(alpha),
                "exact_zero": table.is_exact_zero(alpha)}
               for alpha in table.indices()]
    _emit({"dimension": table.dimension, "order": table.order,
           "entries": entries,
           "weighted_norms": {str(g): val for g, val in sorted(norms.items())}},
          args.out)
    return 0


def cmd_solve(args):
    u0, u1 = pair_from_config(load_config(args.data))
    sol = SpectralSolution(u0=u0, u1=u1)
    ts = _parse_times(args.t, positive=False)
    axis, pts = _parse_xi_grid(args.xi_grid, sol.dimension)
    rep = None if args.rep == "auto" else args.rep
    # every value is computed before the first byte is written, so a failed
    # evaluation leaves no partial output; without times nothing is
    # evaluated and the header is written alone
    vals = sol.evaluate(np.asarray(ts), pts, rep=rep) if ts else ()
    coords = _grid_coordinates(axis, sol.dimension)
    header = ("t," + ",".join(f"xi{j + 1}" for j in range(sol.dimension))
              + ",re,im\n")
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(header)
        _write_rows(handle, ts, vals, coords)
    return 0


def _format_rows(t, coords, row):
    """The CSV rows of the values ``row`` at time ``t`` and the points
    whose text is ``coords``."""
    head = repr(t)
    return "".join([f"{head},{c},{re!r},{im!r}\n" for c, re, im
                    in zip(coords, row.real.tolist(), row.imag.tolist())])


def _write_rows(handle, ts, vals, coords):
    """Write the rows of every time.  With two usable CPUs a forked child
    formats the second half of each time's rows while this process formats
    and writes the first half; the bytes are those of one process."""
    mid = len(coords) // 2
    child = _fork_formatter(ts, vals, coords, mid) if ts else None
    if child is None:
        for t, row in zip(ts, vals):
            handle.write(_format_rows(t, coords, row))
        return
    pid, read_end = child
    try:
        with open(read_end, "rb") as pipe:
            chunk = b""
            for t, row in zip(ts, vals):
                handle.write(_format_rows(t, coords[:mid], row[:mid]))
                chunk = None if chunk is None else _read_chunk(pipe)
                # after EOF or a short chunk this process formats the rest
                handle.write(_format_rows(t, coords[mid:], row[mid:])
                             if chunk is None else chunk.decode())
    finally:
        os.waitpid(pid, 0)


def _fork_formatter(ts, vals, coords, mid):
    """(pid, pipe read end) of a child that formats the rows from ``mid`` on
    at every time and sends them as one length-prefixed chunk per time;
    None without two usable CPUs or when the fork fails."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    # the header waits unflushed in the inherited output buffer, so the
    # child never touches the output and leaves only through _exit; a
    # parent that stops reading ends it with BrokenPipeError.  The child
    # only formats text, so it never needs the threads fork leaves behind
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            for t, row in zip(ts, vals):
                chunk = _format_rows(t, coords[mid:], row[mid:]).encode()
                pipe.write(len(chunk).to_bytes(8, "little") + chunk)
        status = 0
    finally:
        os._exit(status)


def _read_chunk(pipe):
    """The next length-prefixed chunk of ``pipe``, or None at EOF or when
    the chunk is cut short."""
    prefix = pipe.read(8)
    if len(prefix) < 8:
        return None
    size = int.from_bytes(prefix, "little")
    chunk = pipe.read(size)
    return chunk if len(chunk) == size else None


def cmd_expansion(args):
    # A_{-1} is the zero polynomial; every other order starts at 0
    _check_order(args.k, -1 if args.kind == "A" else 0, "--k")
    datum = datum_or_pair_sum(load_config(args.data))
    table = moment_table(datum, max(args.k, 0))
    poly = build_expansion(args.kind, args.k, table)
    if args.print == "terms":
        payload = {"kind": poly.kind, "order": poly.order,
                   "dimension": poly.dimension,
                   "terms": [{"re": t.coefficient.real,
                              "im": t.coefficient.imag,
                              "radial_power": t.radial_power,
                              "monomial": list(t.monomial)}
                             for t in poly.terms]}
    else:
        payload = {"kind": poly.kind, "order": poly.order,
                   "dimension": poly.dimension,
                   "canonical": [{"monomial": list(mono),
                                  "re": c.real, "im": c.imag}
                                 for mono, c in poly.canonical],
                   "structurally_zero": poly.is_structurally_zero}
    _emit(payload, args.out)
    return 0


def cmd_norm(args):
    _check_order(args.k, 0, "--k")
    if not (math.isfinite(args.tol) and 0.0 < args.tol < 1.0):
        raise ConfigError(f"bad --tol {args.tol!r}: must be finite, > 0 and < 1")
    u0, u1 = pair_from_config(load_config(args.data))
    sol = SpectralSolution(u0=u0, u1=u1)
    region = _parse_region(args.region, sol.dimension)
    rows = []
    for t in _parse_times(args.t, positive=True):
        res = residual_norm(sol, t, args.k, region, tol=args.tol)
        rows.append({"t": t, "norm": res.value,
                     "error_estimate": res.error_estimate,
                     "evaluations": res.evaluations})
    if args.out and args.out.endswith(".csv"):
        lines = ["t,norm,error_estimate,evaluations"]
        lines += [f"{r['t']!r},{r['norm']!r},{r['error_estimate']!r},"
                  f"{r['evaluations']}" for r in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        _emit({"k": args.k, "region": args.region, "results": rows}, args.out)
    return 0


def cmd_report(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg["seed"] = args.seed
    bundle = run_report(cfg, args.out_dir)
    sys.stdout.write(f"wrote {bundle.out_dir / 'summary.json'} "
                     f"({bundle.summary['n_failed']} failed)\n")
    return 0 if bundle.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dampex",
        description="Verify diffusion-type expansions and decay bounds for a "
                    "doubly damped wave equation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="emit a moment table as JSON")
    p.add_argument("--data", required=True, help="datum or pair config (JSON)")
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument("--gammas", default="", help="comma list of weights")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("solve", help="evaluate the transformed solution on a grid")
    p.add_argument("--data", required=True, help="pair config (JSON)")
    p.add_argument("--t", required=True, help="comma list of times")
    p.add_argument("--xi-grid", required=True, dest="xi_grid",
                   help="lin:lo,hi,count (tensorized per axis)")
    p.add_argument("--rep", default="auto", choices=("auto",) + REPRESENTATIONS)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("expansion", help="build an expansion polynomial")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=("A", "B", "C"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--print", default="terms", choices=("terms", "canonical"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("norm", help="region L2 norms of the expansion residual")
    p.add_argument("--data", required=True, help="pair config (JSON)")
    p.add_argument("--t", required=True, help="comma list of times")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--region", default="full",
                   help="ball:r | annulus:a,b | ext:r | full")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None, help=".json or .csv path")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("report", help="run a verification campaign")
    p.add_argument("--config", default=None,
                   help="campaign config JSON (bundled default if omitted)")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--seed", type=int, default=None,
                   help="override the frequency-sample seed")
    p.set_defaults(func=cmd_report)
    return parser


# built once per process: parsing leaves the parser unchanged, so repeated
# in-process calls of main share it and pay only for their own work
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DampexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        # reading inputs raises ConfigError, so this is an output failing
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
