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


def _grid_axis(lo, hi, count):
    """``count`` points from ``lo`` to ``hi``, built from both ends with
    numpy's one step (hi - lo) / (count - 1): the points below the middle
    are ``np.linspace(lo, hi, count)``'s, each one above it is the same
    multiple of the step taken back from ``hi``, and an odd count's middle
    point is (lo + hi) / 2.  So an axis with lo = -hi is the exact negation
    of its reverse, with 0.0 in the middle, and points that mirror each
    other get the same text."""
    axis = np.linspace(lo, hi, count)
    half = count // 2
    axis[count - half:] = np.linspace(hi, lo, count)[:half][::-1]
    if count > 1 and count % 2:
        # halved first, so the sum stays in the floats; the same double as
        # (lo + hi) / 2 unless a bound is subnormal
        axis[half] = lo / 2 + hi / 2
    return axis


def _parse_xi_grid(text, dimension):
    kind, _, rest = text.partition(":")
    if kind != "lin":
        raise ConfigError(f"bad xi grid {text!r}; use lin:lo,hi,count")
    try:
        lo, hi, count = rest.split(",")
        lo, hi = (number(float(b), f"xi grid {text!r} bound",
                         need="bounds must be finite") for b in (lo, hi))
        count = int(count)
        axis = _grid_axis(lo, hi, count)
        # finite bounds can still take the step (hi - lo) / (count - 1), and
        # with it nan or inf, into the points; the largest |point| is nan or
        # inf then
        number(float(np.abs(axis).max(initial=0.0)),
               f"xi grid {text!r} point", need="points must be finite")
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


def _grid_coordinates(axis, dimension, runs):
    """The CSV text of the points of ``_parse_xi_grid`` in the runs ``runs``,
    (start, stop) pairs of indices of its ``ij`` order (first axis
    slowest), run after run.  Each axis value is formatted once, and the
    text of the first ``dimension - 1`` coordinates once per distinct
    head."""
    values = [repr(c) for c in axis.tolist()]
    heads = [""]
    for _ in range(dimension - 1):
        heads = [f"{head}{c}," for head in heads for c in values]
    heads, values = (np.array(text, dtype=object) for text in (heads, values))
    coords = []
    for start, stop in runs:
        head, last = np.divmod(np.arange(start, stop), len(values))
        coords += [h + c for h, c in
                   zip(heads[head].tolist(), values[last].tolist())]
    return coords


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
            # alone this process formats every run, with a child the runs
            # of the even folded chunks, and the child those of the odd ones
            step = 1 if pipe is None else 2
            coords = _grid_coordinates(
                axis, sol.dimension, _own_runs(vals.shape[1], step, 0))
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


def _runs(size, step):
    """The runs of rows of a time of ``size`` rows, as (owner, start, stop)
    in grid order, empty runs left out.  Row r lies in folded chunk
    min(r, size - 1 - r) // CHUNK_ROWS, so chunk k is a run of up to
    CHUNK_ROWS rows of the lower half and the run of the upper half that
    mirrors it; the process ``k % step`` owns both, 0 this one and 1 the
    child."""
    half = (size + 1) // 2
    starts = range(0, half, CHUNK_ROWS)
    low = [(k % step, a, min(a + CHUNK_ROWS, half))
           for k, a in enumerate(starts)]
    high = [(k % step, max(size - a - CHUNK_ROWS, half), size - a)
            for k, a in enumerate(starts)]
    return [run for run in low + high[::-1] if run[1] < run[2]]


def _own_runs(size, step, owner):
    """(start, stop) of each run of ``_runs(size, step)`` that ``owner``
    formats, in grid order."""
    return [(a, b) for who, a, b in _runs(size, step) if who == owner]


def _format_rows(t, runs, coords, row):
    """The CSV rows of the values of ``row``, a time's values, at time ``t``
    in the runs ``runs`` of (start, stop) indices, whose points' text is
    ``coords``; yielded one run at a time, each built by one ``%`` over a
    row template.

    One rule decides over all the runs, one process's rows of one time.
    The distinct doubles among their re and im values are found by their
    bits, so ``0.0`` and ``-0.0`` keep their own text, and then folded:
    each v < 0 takes the text ``"-" + repr(-v)``, which is ``repr(v)``; a
    NaN is not < 0, so it stays ``nan`` whatever its sign.
    When at most half of the values are distinct after the fold, as for
    radially symmetric or box data and for the conjugate values real data
    take at mirrored points, each folded value is formatted once and its
    text gathered into every place it takes; otherwise ``%r`` formats every
    value.  Both ways give the bytes of ``repr`` per value."""
    if not coords:
        return
    head = repr(t)
    row = np.concatenate([row[a:b] for a, b in runs])
    # flattened before np.unique, whose inverse took the input's shape in
    # numpy 2.0
    pairs = np.stack([row.real, row.imag], axis=-1).ravel()
    bits = pairs.view(np.int64)
    # a sort and a mask find the distinct values (np.unique without an
    # inverse took ten times as long), so only they are folded; the inverse
    # over all values is taken on the shared-text branch alone
    ranked = np.sort(bits)
    signed = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    del ranked
    signed = signed.view(np.float64)
    negative = signed < 0
    folded, index = np.unique(
        np.where(negative, -signed, signed).view(np.int64),
        return_inverse=True)
    if 2 * folded.size <= pairs.size:
        texts = np.array([repr(v) for v in folded.view(np.float64).tolist()],
                         dtype=object)[index]
        texts[negative] = "-" + texts[negative]
        spec, values = "%s", texts[np.unique(bits, return_inverse=True)[1]]
    else:
        spec, values = "%r", pairs
    cell = f",{spec},{spec}\n"
    start = 0
    for a, b in runs:
        stop = start + b - a
        yield ((head + "," + (cell + head + ",").join(coords[start:stop])
                + cell) % tuple(values[2 * start:2 * stop].tolist()))
        start = stop


def _write_rows(handle, pipe, step, ts, vals, axis, dimension, coords):
    """Write the rows of every time, run by run in grid order.

    This process formats the runs it owns in ``_runs(size, step)``, whose
    points' text is ``coords``; with a child's ``pipe`` it copies each of
    the child's runs from there as bytes.  After EOF or a short run it
    formats the child's runs itself, each from the text of its own points.
    Every run comes from ``_format_rows``, so the bytes are those of one
    process."""
    runs = _runs(vals.shape[1], step)
    own = _own_runs(vals.shape[1], step, 0)
    buffer = bytearray()
    for t, row in zip(ts, vals):
        texts = _format_rows(t, own, coords, row)
        for who, a, b in runs:
            if who == 0:
                handle.write(next(texts))
            elif pipe is None or not _copy_chunk(pipe, handle, buffer):
                pipe = None
                handle.write("".join(_format_rows(
                    t, [(a, b)], _grid_coordinates(axis, dimension, [(a, b)]),
                    row)))


def _fork_formatter(ts, vals, axis, dimension):
    """(pid, pipe read end) of a child that formats the runs of the odd
    folded chunks of every time and sends each, length-prefixed, as soon as
    it is formatted; None without two usable CPUs or when the fork fails.
    The child builds the text of its own points only."""
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
        runs = _own_runs(vals.shape[1], 2, 1)
        coords = _grid_coordinates(axis, dimension, runs)
        with open(write_end, "wb") as pipe:
            for t, row in zip(ts, vals):
                for text in _format_rows(t, runs, coords, row):
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
