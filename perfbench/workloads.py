"""Seeded input generators for the three benchmark workloads.

Every generator returns plain JSON-style configs: the program only ever
receives these, through files and ``dampex`` CLI arguments.  Each stream
draws continuous parameters, and ``DatumLedger`` refuses a datum value that
an earlier operation of the same run already used, so the package's
module-level ``lru_cache``s (keyed on value-equal frozen dataclasses)
never serve a timed operation from an earlier one.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
NORM_POOL = HERE / "reference" / "norm_pool.json"

WORKLOADS = ("campaign", "norm-multid", "solve-grid")

# the seed of the warm-up stream; timed operations use the run seed
_WARMUP_SALT = 0x5EED


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _gaussian(rng, dim=None, scale=(0.5, 2.0), amp=(0.5, 2.0)):
    cfg = {"family": "gaussian", "scale": _log_uniform(rng, *scale),
           "amplitude": float(rng.uniform(*amp))}
    if dim is not None:
        cfg["dimension"] = dim
    return cfg


def _shifted_gaussian(rng, dim, scale=(0.5, 2.0), amp=(0.5, 2.0), reach=0.8):
    center = rng.uniform(-reach, reach, dim)
    while float(np.linalg.norm(center)) < 0.2:   # keep first moments alive
        center = rng.uniform(-reach, reach, dim)
    return {"family": "shifted", "dilation": 1.0,
            "center": [float(c) for c in center],
            "base": _gaussian(rng, dim, scale, amp)}


def _box(rng, dim=None, width=(0.5, 1.5), amp=(0.5, 2.0)):
    cfg = {"family": "box", "half_width": float(rng.uniform(*width)),
           "amplitude": float(rng.uniform(*amp))}
    if dim is not None:
        cfg["dimension"] = dim
    return cfg


_MONOMIAL_EXPONENTS = {2: [(1, 0), (0, 1), (2, 0), (1, 1)],
                       3: [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)]}


def _gaussian_monomial(rng, dim):
    choices = _MONOMIAL_EXPONENTS[dim]
    exps = choices[int(rng.integers(len(choices)))]
    return {"family": "gaussian_monomial", "exponents": list(exps),
            "scale": _log_uniform(rng, 0.5, 2.0),
            "amplitude": float(rng.uniform(0.5, 2.0))}


def datum_key(cfg) -> str:
    return json.dumps(cfg, sort_keys=True)


class DatumLedger:
    """Every datum value handed out in one run, to keep timed work cold."""

    def __init__(self):
        self.seen = set()

    def fresh(self, draw):
        """Call ``draw()`` until its (u0, u1) configs are both unseen.

        The zero datum carries no parameters and is exempt: it never forms
        a cache key alone, because every cached function takes the pair or
        its sum, and those always hold one drawn datum.
        """
        while True:
            pair = draw()
            keys = [datum_key(pair[u]) for u in ("u0", "u1")
                    if pair[u]["family"] != "zero"]
            if not any(k in self.seen for k in keys):
                self.seen.update(keys)
                return pair


# ---------------------------------------------------------------------------
# campaign: default_config() with drawn data parameters


def campaign_config(rng, ledger: DatumLedger) -> dict:
    """The bundled campaign with drawn scales, amplitudes, widths and shift.

    Cases, checks, k values, time grids and quad_tol stay those of
    ``default_config()``; the ranges keep every check non-degenerate
    (box half-widths stay far below sqrt(6), where B_2 of a 1-D box
    vanishes, and the 2-D shift stays away from the origin, where B_1
    vanishes).
    """
    from dampex.experiments import default_config

    cfg = default_config()
    cfg["seed"] = int(rng.integers(1, 2**31 - 1))
    draws = {
        "gauss-1d": lambda: {
            "dimension": 1,
            "u0": _gaussian(rng, scale=(0.7, 1.4), amp=(0.7, 1.4)),
            "u1": _gaussian(rng, scale=(0.35, 0.7), amp=(0.2, 0.6))},
        "box-1d": lambda: {
            "dimension": 1,
            "u0": _box(rng, width=(0.7, 1.4), amp=(0.7, 1.4)),
            "u1": {"family": "zero"}},
        "shifted-gauss-2d": lambda: {
            "dimension": 2,
            "u0": _shifted_gaussian(rng, 2, scale=(0.7, 1.4), amp=(0.7, 1.4),
                                    reach=0.7),
            "u1": {"family": "zero"}},
    }
    for case in cfg["cases"]:
        case["data"] = ledger.fresh(draws[case["name"]])
    return cfg


# ---------------------------------------------------------------------------
# norm-multid: single-t norm requests on 2-D and 3-D pairs

# (pair kind, dimension, region kind); the generator visits every stratum
# once per round, in a seeded order, so every run holds the same mix
NORM_STRATA = [(kind, dim, region) for dim in (2, 3)
               for kind in ("gauss", "gauss-sum", "shifted", "box", "monomial", "sum")
               for region in ("full", "ball", "annulus", "ext")]


def _norm_pair(rng, kind, dim):
    if kind == "gauss":
        u1 = (_gaussian(rng) if rng.random() < 0.7 else {"family": "zero"})
        return {"dimension": dim, "u0": _gaussian(rng), "u1": u1}
    if kind == "gauss-sum":
        return {"dimension": dim,
                "u0": {"family": "sum",
                       "terms": [_gaussian(rng), _gaussian(rng)]},
                "u1": _gaussian(rng)}
    if kind == "shifted":
        u1 = (_gaussian(rng) if rng.random() < 0.5
              else _shifted_gaussian(rng, dim))
        return {"dimension": dim, "u0": _shifted_gaussian(rng, dim), "u1": u1}
    if kind == "box":
        u1 = _box(rng) if rng.random() < 0.5 else {"family": "zero"}
        return {"dimension": dim, "u0": _box(rng), "u1": u1}
    if kind == "monomial":
        return {"dimension": dim, "u0": _gaussian_monomial(rng, dim),
                "u1": _gaussian(rng)}
    if kind == "sum":
        return {"dimension": dim,
                "u0": {"family": "sum",
                       "terms": [_box(rng), _shifted_gaussian(rng, dim)]},
                "u1": _gaussian_monomial(rng, dim)}
    raise ValueError(kind)


def _region(rng, t, kind):
    """A region scaled to the heat width 1/sqrt(t), so every norm is O(1)
    relative to the full-space norm rather than underflowing to zero."""
    w = 1.0 / math.sqrt(t)
    if kind == "full":
        return "full"
    if kind == "ball":
        return f"ball:{rng.uniform(1.0, 4.0) * w!r}"
    if kind == "annulus":
        return f"annulus:{rng.uniform(0.3, 1.0) * w!r},{rng.uniform(2.0, 5.0) * w!r}"
    return f"ext:{rng.uniform(0.5, 2.0) * w!r}"


def norm_request(rng, ledger: DatumLedger, kind, dim, region) -> dict:
    pair = ledger.fresh(lambda: _norm_pair(rng, kind, dim))
    t = _log_uniform(rng, 10.0, 1.0e4)
    return {"kind": kind, "data": pair, "k": int(rng.integers(3)), "t": t,
            "region": _region(rng, t, region), "tol": 1e-9}


def load_norm_pool():
    with open(NORM_POOL, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# solve-grid: dense tensor grids of about 1e5 points at three times

SOLVE_COUNTS = {2: 316, 3: 46}   # 99,856 and 97,336 points


def _solve_pair(rng, dim, pick):
    if pick == 0:
        return {"dimension": dim, "u0": _gaussian(rng), "u1": _gaussian(rng)}
    if pick == 1:
        return {"dimension": dim, "u0": _box(rng), "u1": _gaussian(rng)}
    if pick == 2:
        return {"dimension": dim, "u0": _shifted_gaussian(rng, dim),
                "u1": _gaussian_monomial(rng, dim)}
    return {"dimension": dim,
            "u0": {"family": "sum",
                   "terms": [_box(rng), _shifted_gaussian(rng, dim)]},
            "u1": _gaussian(rng)}


def solve_request(rng, ledger: DatumLedger, dim, pick) -> dict:
    """A grid request; ``pick`` in 0..3 selects the family mix of the pair."""
    pair = ledger.fresh(lambda: _solve_pair(rng, dim, pick))
    ts = sorted(_log_uniform(rng, 0.05, 50.0) for _ in range(3))
    half = float(rng.uniform(1.5, 3.0))
    return {"data": pair, "ts": ts, "lo": -half, "hi": half,
            "count": SOLVE_COUNTS[dim]}


# ---------------------------------------------------------------------------
# operation streams


class PoolExhausted(Exception):
    """Every pinned request of a stratum is used; the run ends there."""


class Stream:
    """The seeded sequence of operations of one workload.

    ``warmup()`` draws from a separate stream so that the set-up operation
    never shares a datum with a timed one; ``next()`` yields the timed
    operations in order.  Two streams built with one seed yield identical
    operations.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.ledger = DatumLedger()
        self._rng = np.random.default_rng([seed, 1])
        self._warm_rng = np.random.default_rng([seed, _WARMUP_SALT])
        self._index = 0
        self._order = []
        if workload == "norm-multid":
            self._pool = load_norm_pool()
            self._by_stratum = {}
            for i, req in enumerate(self._pool["requests"]):
                key = (req["kind"], req["data"]["dimension"],
                       req["region"].partition(":")[0])
                self._by_stratum.setdefault(key, []).append(i)
            for idx in self._by_stratum.values():
                self._rng.shuffle(idx)

    def warmup(self) -> dict:
        return self._draw(self._warm_rng, warm=True)

    def next(self) -> dict:
        op = self._draw(self._rng, warm=False)
        self._index += 1
        return op

    def _draw(self, rng, warm):
        if self.workload == "campaign":
            return {"config": campaign_config(rng, self.ledger)}
        if self.workload == "solve-grid":
            # every run cycles through the four family mixes (two per
            # dimension) in one order, so runs differ in drawn parameters
            if warm:
                return solve_request(rng, self.ledger, 3, 0)
            return solve_request(rng, self.ledger, 2 + self._index % 2,
                                 self._index % 4)
        if warm:
            # drawn fresh, not from the pool: its radial pair is checked
            # against the oracle alone
            return norm_request(rng, self.ledger, "gauss", 3, "full")
        return self._pool_request()

    def _pool_request(self):
        """The next request of the pinned pool, one stratum per slot.

        Rounds visit every stratum once in a seeded order; within a stratum
        the pool entries come in a seeded order without replacement.
        """
        if not self._order:
            order = list(range(len(NORM_STRATA)))
            self._rng.shuffle(order)
            self._order = [NORM_STRATA[i] for i in order]
        stratum = self._order.pop()
        entries = self._by_stratum[stratum]
        if not entries:
            raise PoolExhausted(stratum)
        req = copy.deepcopy(self._pool["requests"][entries.pop()])
        keys = [datum_key(req["data"][u]) for u in ("u0", "u1")
                if req["data"][u]["family"] != "zero"]
        if any(k in self.ledger.seen for k in keys):
            raise RuntimeError("the norm pool repeats a datum value")
        self.ledger.seen.update(keys)
        return req
