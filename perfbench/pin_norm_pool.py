"""Regenerate the pinned request pool of the ``norm-multid`` workload.

    PYTHONPATH=src python3 perfbench/pin_norm_pool.py

Draws PER_STRATUM requests per stratum from a fixed pool seed and records the value,
error estimate and evaluation count that the checked-out ``dampex``
computes for each.  The benchmark checks every non-radial request against
these values, so regenerate the pool only from a commit whose norms are
trusted, and say so in the change that does it.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (NORM_POOL, NORM_STRATA, DatumLedger,  # noqa: E402
                       norm_request)

POOL_SEED = 20181017
PER_STRATUM = 50


def pinned_value(req):
    from dampex import cli
    from dampex.initial_data import pair_from_config
    from dampex.norms import residual_norm
    from dampex.spectral import SpectralSolution

    u0, u1 = pair_from_config(req["data"])
    sol = SpectralSolution(u0=u0, u1=u1)
    region = cli._parse_region(req["region"], sol.dimension)
    res = residual_norm(sol, req["t"], req["k"], region, tol=req["tol"])
    return {"value": res.value, "error_estimate": res.error_estimate,
            "evaluations": res.evaluations}


def main():
    rng = np.random.default_rng(POOL_SEED)
    ledger = DatumLedger()
    requests = []
    for _ in range(PER_STRATUM):
        for kind, dim, region in NORM_STRATA:
            requests.append(norm_request(rng, ledger, kind, dim, region))
    cost = {}
    for req in requests:
        start = time.perf_counter()
        req["reference"] = pinned_value(req)
        key = f"{req['kind']}-{req['data']['dimension']}d"
        cost[key] = cost.get(key, 0.0) + time.perf_counter() - start
    per_kind = 4 * PER_STRATUM        # four region kinds per (kind, dim)
    for key, total in sorted(cost.items()):
        print(f"{key:14s} {total / per_kind * 1e3:8.1f} ms/request")
    assert all(math.isfinite(r["reference"]["value"]) for r in requests)
    lines = ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                       for r in requests)
    NORM_POOL.write_text(
        f'{{"pool_seed":{POOL_SEED},"per_stratum":{PER_STRATUM},'
        f'"requests":[\n{lines}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
