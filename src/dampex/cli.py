"""Command-line interface: moments, solve, expansion, norm, report."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DampexError
from .expansion import build_expansion
from .experiments import default_config, load_config, run_report
from .initial_data import (datum_or_pair_sum, integer, moment_table, number,
                           pair_from_config, weighted_l1_norm)
from .norms import FrequencyRegion, residual_norm
from .spectral import REPRESENTATIONS, SpectralSolution

# grid points per ``evaluate`` call of ``solve``, and rows per chunk of one
# time's CSV: the values are held whole, their text a few chunks at a time
CHUNK_POINTS = 1 << 13
CHUNK_ROWS = 1 << 12


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
    need = "> 0" if positive else ">= 0"
    return [number(t, "time", lambda t: t > 0 if positive else t >= 0,
                   f"times must be finite and {need}")
            for t in _parse_floats(text)]


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
        lo, hi = (number(float(b), f"xi grid {text!r} bound",
                         need="bounds must be finite") for b in (lo, hi))
        count = int(count)
        axis = np.linspace(lo, hi, count)
        grids = np.meshgrid(*([axis] * dimension), indexing="ij")
        return axis, np.stack([g.ravel() for g in grids], axis=-1)
    except ValueError as exc:
        raise ConfigError(f"bad xi grid {text!r}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(_too_large(text, count, dimension)) from exc


def _too_large(text, count, dimension):
    """The message of a grid whose points, values or text cannot be held."""
    return (f"bad xi grid {text!r}: cannot hold its {count}**{dimension} "
            "points")


def _grid_coordinates(axis, dimension, rows):
    """The CSV text of the points of ``_parse_xi_grid`` at the indices
    ``rows`` of its ``ij`` order (first axis slowest).  Each axis value is
    formatted once, and the text of the first ``dimension - 1`` coordinates
    once per distinct head."""
    values = [repr(c) for c in axis.tolist()]
    heads = [""]
    for _ in range(dimension - 1):
        heads = [f"{head}{c}," for head in heads for c in values]
    head, last = np.divmod(rows, len(values))
    heads = np.array(heads, dtype=object)[head].tolist()
    return [h + c for h, c in
            zip(heads, np.array(values, dtype=object)[last].tolist())]


def cmd_moments(args):
    integer(args.max_order, "--max-order")
    gammas = [number(g, "weight", lambda g: g >= 0,
                     "weights in --gammas must be finite and >= 0")
              for g in _parse_floats(args.gammas)]
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
    rep = "2.4" if args.rep == "auto" else args.rep
    header = ("t," + ",".join(f"xi{j + 1}" for j in range(sol.dimension))
              + ",re,im\n")
    with contextlib.ExitStack() as stack:
        # every value is computed, and this process's point text built,
        # before the output is opened, so a failed evaluation or a grid too
        # large to hold leaves no output; without times nothing is
        # evaluated and the header is written alone
        try:
            vals = _evaluate(sol, ts, pts, rep)
            del pts
            child = (_fork_formatter(ts, vals, axis, sol.dimension)
                     if ts else None)
            pipe = None
            if child is not None:
                # the read end closes before the wait, so a child blocked
                # on a full pipe ends with BrokenPipeError
                stack.callback(os.waitpid, child[0], 0)
                pipe = stack.enter_context(open(child[1], "rb"))
            # alone this process formats every chunk, with a child the even
            # ones, and the child the odd ones
            step = 1 if pipe is None else 2
            coords = _grid_coordinates(
                axis, sol.dimension, _chunk_rows(vals.shape[1], 0, step))
        except MemoryError as exc:
            raise ConfigError(_too_large(args.xi_grid, len(axis),
                                         sol.dimension)) from exc
        handle = stack.enter_context(
            open(args.out, "w", encoding="utf-8") if args.out
            else contextlib.nullcontext(sys.stdout))
        handle.write(header)
        _write_rows(handle, pipe, step, ts, vals, axis, sol.dimension, coords)
    return 0


def _evaluate(sol, ts, pts, rep):
    """The values at the times ``ts`` (rows) and the points ``pts``
    (columns), evaluated CHUNK_POINTS points at a time into one array; a
    singular point raises from the first chunk that holds it."""
    vals = np.empty((len(ts), len(pts)), dtype=complex)
    for start in range(0, len(pts) if ts else 0, CHUNK_POINTS):
        stop = start + CHUNK_POINTS
        vals[:, start:stop] = sol.evaluate(np.asarray(ts), pts[start:stop],
                                           rep=rep)
    return vals


def _chunk_rows(size, first, step):
    """The indices of the rows of every ``step``-th chunk from chunk
    ``first`` on, of a time of ``size`` rows; chunk i holds the CHUNK_ROWS
    rows from i * CHUNK_ROWS on."""
    index = np.arange(size)
    return index[index // CHUNK_ROWS % step == first]


def _format_rows(t, coords, row):
    """The CSV rows of the values ``row`` at time ``t`` and the points
    whose text is ``coords``, yielded CHUNK_ROWS rows at a time, each chunk
    built by one ``%`` over a row template.

    When at most half of the re and im values of ``row`` are distinct
    doubles, as for radially symmetric or box data, each distinct one is
    formatted once and its text gathered into every place it takes;
    otherwise ``%r`` formats every value.  The rule is applied once over
    all of ``row``, one process's rows of one time.  Values are told apart
    by their bits, so ``0.0`` and ``-0.0`` keep their own text.  Both ways
    give the bytes of ``repr`` per value."""
    if not coords:
        return
    head = repr(t)
    # flattened before np.unique, whose inverse took the input's shape in
    # numpy 2.0
    pairs = np.stack([row.real, row.imag], axis=-1).ravel()
    # a sort and a count of changes decide, and only a gather needs the
    # inverse; the sorted copy goes before either branch builds its values
    ranked = np.sort(pairs.view(np.int64))
    distinct = 1 + np.count_nonzero(ranked[1:] != ranked[:-1])
    del ranked
    if 2 * distinct <= pairs.size:
        bits, where = np.unique(pairs.view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                         dtype=object)
        spec, values = "%s", texts[where]
    else:
        spec, values = "%r", pairs
    cell = f",{spec},{spec}\n"
    for start in range(0, len(coords), CHUNK_ROWS):
        block = coords[start:start + CHUNK_ROWS]
        yield ((head + "," + (cell + head + ",").join(block) + cell)
               % tuple(values[2 * start:2 * (start + len(block))].tolist()))


def _write_rows(handle, pipe, step, ts, vals, axis, dimension, coords):
    """Write the rows of every time, chunk by chunk in grid order.

    This process formats every ``step``-th chunk from the first, whose
    points' text is ``coords``; with a child's ``pipe`` it copies each other
    chunk from there as bytes.  After EOF or a short chunk it formats the
    child's chunks itself, each from the text of its own points.  Every
    chunk comes from ``_format_rows``, so the bytes are those of one
    process."""
    size = vals.shape[1]
    rows = _chunk_rows(size, 0, step)
    buffer = bytearray()
    for t, row in zip(ts, vals):
        own = _format_rows(t, coords, row[rows])
        for i in range(-(-size // CHUNK_ROWS)):
            if i % step == 0:
                handle.write(next(own))
            elif pipe is None or not _copy_chunk(pipe, handle, buffer):
                pipe = None
                lost = np.arange(size)[i * CHUNK_ROWS:(i + 1) * CHUNK_ROWS]
                handle.write("".join(_format_rows(
                    t, _grid_coordinates(axis, dimension, lost), row[lost])))


def _fork_formatter(ts, vals, axis, dimension):
    """(pid, pipe read end) of a child that formats the odd row chunks of
    every time and sends each, length-prefixed, as soon as it is
    formatted; None without two usable CPUs or when the fork fails.  The
    child builds the text of its own points only."""
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
    # the child never touches the output, whose buffer may hold text this
    # process wrote before, and leaves only through _exit; a parent that
    # stops reading ends it with BrokenPipeError.  The child only formats
    # text, so it never needs the threads fork leaves behind
    status = 1
    try:
        os.close(read_end)
        rows = _chunk_rows(vals.shape[1], 1, 2)
        coords = _grid_coordinates(axis, dimension, rows)
        with open(write_end, "wb") as pipe:
            for t, row in zip(ts, vals):
                for text in _format_rows(t, coords, row[rows]):
                    chunk = text.encode()
                    pipe.write(len(chunk).to_bytes(8, "little"))
                    pipe.write(chunk)
                    pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _copy_chunk(pipe, handle, buffer):
    """Copy the next length-prefixed chunk of ``pipe`` to ``handle`` as
    bytes through ``buffer``, grown to the largest chunk; False, and
    nothing written, at EOF or when the chunk is cut short."""
    prefix = pipe.read(8)
    if len(prefix) < 8:
        return False
    size = int.from_bytes(prefix, "little")
    if len(buffer) < size:
        buffer.extend(bytes(size - len(buffer)))
    with memoryview(buffer)[:size] as view:
        if pipe.readinto(view) < size:
            return False
        if hasattr(handle, "buffer"):
            # the text layer flushes first, so its bytes come before these
            handle.flush()
            handle.buffer.write(view)
        else:
            # an in-memory text output takes text
            handle.write(str(view, "utf-8"))
    return True


def cmd_expansion(args):
    # A_{-1} is the zero polynomial; every other order starts at 0
    least = -1 if args.kind == "A" else 0
    number(args.k, "--k", lambda k: k >= least, f"must be an integer >= {least}",
           integer=True)
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
    integer(args.k, "--k")
    number(args.tol, "--tol", lambda tol: 0.0 < tol < 1.0,
           "must be finite, > 0 and < 1")
    u0, u1 = pair_from_config(load_config(args.data))
    sol = SpectralSolution(u0=u0, u1=u1)
    region = _parse_region(args.region, sol.dimension)
    rows = []
    for t in _parse_times(args.t, positive=True):
        res = residual_norm(sol, t, args.k, region, tol=args.tol)
        rows.append({"t": t, "norm": res.value,
                     "error_estimate": res.error_estimate,
                     "evaluations": res.evaluations, "stalled": res.stalled})
    if args.out and args.out.endswith(".csv"):
        lines = ["t,norm,error_estimate,evaluations,stalled"]
        lines += [f"{r['t']!r},{r['norm']!r},{r['error_estimate']!r},"
                  f"{r['evaluations']},{json.dumps(r['stalled'])}" for r in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        _emit({"k": args.k, "region": args.region, "results": rows}, args.out)
    return 0


def cmd_report(args):
    cfg = load_config(args.config) if args.config else default_config()
    summary = run_report(cfg, args.out_dir)
    sys.stdout.write(f"wrote {Path(args.out_dir) / 'summary.json'} "
                     f"({summary['n_failed']} failed)\n")
    return 0 if summary["passed"] else 1


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
    p.set_defaults(func=cmd_report)
    return parser


# built once per process: parsing leaves the parser unchanged, so repeated
# in-process calls of main share it and pay only for their own work
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # a value that leaves the floats ends in the program's own error
        # (a non-finite integrand is named), so numpy's warnings on the way
        # would only precede that one line
        with np.errstate(all="ignore"):
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
