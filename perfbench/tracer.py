"""Spans and exact counters recorded around ``dampex``'s public functions.

``install`` replaces each traced function by a wrapper in every module that
bound it by name (``from .quadrature import adaptive_1d`` makes a second
binding that patching ``quadrature`` alone would miss), and replaces the
methods on the classes that define them.  The package's source is never
changed.

A span holds its name, start, end, parent span and operation id.  Spans
live in flat arrays while the run lasts and are written out once at the
end.  A call made while a span of the same name is open (a sum datum
transforming its terms) opens no span of its own, so inclusive times and
counts are never counted twice.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# layers whose busy time, self time and call count are reported
SPAN_LAYERS = (
    "quadrature.adaptive_1d", "quadrature.integrate_radial",
    "quadrature.choose_angular_rule", "quadrature.truncation_radius",
    "norms.region_l2_norm", "norms.residual_norm", "norms.closed_form",
    "spectral.evaluate", "initial_data.fourier_transform",
    "initial_data.moment_table", "expansion.poly_call",
    "expansion.build_expansion", "experiments.rate", "experiments.sandwich",
    "experiments.heat", "experiments.vanishing", "experiments.properties",
    "cli.main",
)

_CURVE_CHECKS = ("experiments.rate", "experiments.sandwich")
_ADAPTIVE = SPAN_LAYERS.index("quadrature.adaptive_1d")


class _Frame:
    __slots__ = ("idx", "nid", "quad_evals", "radial_evals", "nodes", "stalled")

    def __init__(self, idx, nid):
        self.idx = idx
        self.nid = nid
        self.quad_evals = 0      # integrand calls of direct adaptive_1d children
        self.radial_evals = 0    # evaluations of direct integrate_radial children
        self.nodes = 0           # angular nodes chosen by a direct child
        self.stalled = False     # a scipy quad call below returned ier != 0


class Tracer:
    def __init__(self):
        self.names = list(SPAN_LAYERS)
        self._nid = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack = []
        self.open_count = [0] * len(self.names)
        self.op_id = -1
        self.counts = {}
        self.enabled = True

    # -- recording ------------------------------------------------------------

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self.stack[-1].idx if self.stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        frame = _Frame(idx, nid)
        self.stack.append(frame)
        self.open_count[nid] += 1
        self.start.append(time.perf_counter())
        return frame

    def _close(self, frame):
        now = time.perf_counter()
        self.stack.pop()
        self.open_count[frame.nid] -= 1
        self.end[frame.idx] = now
        if self.stack:
            self.child[self.stack[-1].idx] += now - self.start[frame.idx]

    def reset(self):
        """Drop everything recorded so far (the untimed warm-up)."""
        if self.stack:
            raise RuntimeError("reset inside an open span")
        self.__init__()

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(frame, args, kwargs, result)`` adds
        counts once the span has closed."""
        nid = self._nid[name]
        calls_key = f"{name}.calls"

        def wrapped(*args, **kwargs):
            if not self.enabled or self.open_count[nid]:
                return fn(*args, **kwargs)
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
                self.add(calls_key)
            if after:
                after(frame, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    @property
    def top(self):
        return self.stack[-1] if self.stack else None

    # -- aggregation ----------------------------------------------------------

    def layer_times(self):
        """{layer: (busy_s, self_s)} summed over all recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        child = np.frombuffer(self.child, dtype=np.float64)
        dur = end - start
        busy = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: (float(busy[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _points(xi):
    shape = np.shape(xi)
    if len(shape) <= 1:
        return 1
    return int(np.prod(shape[:-1]))


def _patch(modules, attr, wrapper):
    for module in modules:
        if getattr(module, attr, None) is not None:
            setattr(module, attr, wrapper)


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``dampex.quadrature`` so the
    ``quad`` results that ``adaptive_1d`` accepts with ier != 0 are seen."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def quad(self, *args, **kwargs):
        out = self._real.quad(*args, **kwargs)
        frame = self._tracer.top
        if len(out) > 3 and frame is not None and frame.nid == _ADAPTIVE:
            frame.stalled = True
        return out


def install(tracer: Tracer):
    """Wrap every traced function of ``dampex`` in place."""
    from dampex import (cli, expansion, experiments, initial_data, norms,
                        quadrature, spectral)

    tr = tracer
    # the rule choose_angular_rule falls back to when shells never stabilise
    finest = {d: len(quadrature._angular_levels(d)[-1][1]) for d in (2, 3)}

    # quadrature -------------------------------------------------------------
    def adaptive_after(frame, args, kwargs, result):
        tr.add("quadrature.adaptive_1d.evals", result.evaluations)
        if frame.stalled:
            tr.add("quadrature.quad.stalls_accepted")
        if tr.stack:
            tr.stack[-1].quad_evals += result.evaluations

    adaptive = tr.span("quadrature.adaptive_1d", quadrature.adaptive_1d,
                       after=adaptive_after)
    _patch((quadrature, norms, initial_data), "adaptive_1d", adaptive)
    quadrature.integrate = _IntegrateProxy(quadrature.integrate, tr)

    def angular_after(frame, args, kwargs, result):
        nodes = len(result[1])
        dimension = args[1] if len(args) > 1 else kwargs["dimension"]
        tr.add("quadrature.choose_angular_rule.nodes", nodes)
        if nodes == finest[dimension]:
            tr.add("quadrature.choose_angular_rule.unstable")
        if tr.stack:
            tr.stack[-1].nodes = nodes

    _patch((quadrature,), "choose_angular_rule",
           tr.span("quadrature.choose_angular_rule",
                   quadrature.choose_angular_rule, after=angular_after))

    def radial_after(frame, args, kwargs, result):
        # evaluations as integrate_radial counts them: one per shell call
        # plus one per angular node of every shell
        evals = frame.quad_evals * (frame.nodes + 1)
        tr.add("quadrature.integrate_radial.evals", evals)
        if tr.stack:
            tr.stack[-1].radial_evals += evals

    _patch((quadrature, norms), "integrate_radial",
           tr.span("quadrature.integrate_radial", quadrature.integrate_radial,
                   after=radial_after))
    _patch((quadrature, norms), "truncation_radius",
           tr.span("quadrature.truncation_radius", quadrature.truncation_radius))

    # norms ------------------------------------------------------------------
    def region_after(frame, args, kwargs, result):
        region = args[1] if len(args) > 1 else kwargs["region"]
        # two points per radial sample in 1-D, integrate_radial's count above
        evals = 2 * frame.quad_evals if region.dimension == 1 else frame.radial_evals
        tr.add("norms.region_l2_norm.evals", evals)

    _patch((norms, experiments), "region_l2_norm",
           tr.span("norms.region_l2_norm", norms.region_l2_norm,
                   after=region_after))

    curve_ids = [tr._nid[n] for n in _CURVE_CHECKS]

    def residual_after(frame, args, kwargs, result):
        if any(tr.open_count[i] for i in curve_ids):
            tr.add("experiments.curve_residual_norms")

    _patch((norms, experiments, cli), "residual_norm",
           tr.span("norms.residual_norm", norms.residual_norm,
                   after=residual_after))
    for attr in ("poly_gaussian_l2_norm", "heat_increment_norm"):
        _patch((norms, experiments), attr,
               tr.span("norms.closed_form", getattr(norms, attr)))

    # spectral and initial data ---------------------------------------------
    def points_after(name):
        key = f"{name}.points"

        def after(frame, args, kwargs, result):
            tr.add(key, _points(args[2] if name == "spectral.evaluate" else args[1]))
        return after

    spectral.SpectralSolution.evaluate = tr.span(
        "spectral.evaluate", spectral.SpectralSolution.evaluate,
        after=points_after("spectral.evaluate"))
    for cls in (initial_data.InitialDatum, initial_data.SumDatum):
        cls.fourier_transform = tr.span(
            "initial_data.fourier_transform", cls.__dict__["fourier_transform"],
            after=points_after("initial_data.fourier_transform"))
    _patch((initial_data, norms, experiments, cli), "moment_table",
           tr.span("initial_data.moment_table", initial_data.moment_table))

    # expansion ----------------------------------------------------------------
    def poly_after(frame, args, kwargs, result):
        xi = args[1]
        if np.ndim(xi) == 1:
            tr.add("expansion.poly_call.scalar_calls")
        tr.add("expansion.poly_call.points", _points(xi))

    expansion.ExpansionPolynomial.__call__ = tr.span(
        "expansion.poly_call", expansion.ExpansionPolynomial.__call__,
        after=poly_after)
    _patch((expansion, norms, experiments, cli), "build_expansion",
           tr.span("expansion.build_expansion", expansion.build_expansion))

    # experiments --------------------------------------------------------------
    def curve_after(frame, args, kwargs, result):
        tr.add("experiments.curve_points", len(result.ts) if hasattr(result, "ts")
               else (args[3] if len(args) > 3 else kwargs["grid"]).points)

    for attr, name, after in (("fit_decay_rate", "experiments.rate", curve_after),
                              ("sandwich_check", "experiments.sandwich", curve_after),
                              ("heat_comparison", "experiments.heat", None),
                              ("vanishing_limit_check", "experiments.vanishing", None),
                              ("property_suite", "experiments.properties", None)):
        _patch((experiments,), attr,
               tr.span(name, getattr(experiments, attr), after=after))

    # cli ----------------------------------------------------------------------
    cli.main = tr.span("cli.main", cli.main)
