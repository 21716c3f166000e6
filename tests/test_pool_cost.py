"""A deterministic cost pin on the benchmark's norm pool.

``perfbench/reference/norm_pool.json`` holds the pinned ``dampex norm``
requests of the ``norm-multid`` workload, 50 per stratum (pair kind,
dimension, region kind).  The first request of each of the 48 strata runs
here through ``cli.main``, as the benchmark runs it, and its evaluation
count and the number of calls into the residual field are pinned: both
are deterministic, so a change in the quadrature's work shows here
without a benchmark run.  A few more requests, by index, pin the
truncation exits that no first request takes.  The pool file is only
read.
"""

import json
from pathlib import Path

import pytest

from dampex import norms
from dampex.cli import main
from dampex.quadrature import TRUNCATION_CAP
from dampex.spectral import SpectralSolution

POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        / "norm_pool.json")

# (pair kind, dimension, region kind): (evaluations, field calls).  Stopping
# an unbounded norm at the first heat-ladder edge past its integrand took
# the 48 from 131,208 evaluations to 89,796; no field-call count moved
COST = {
    ("gauss", 2, "full"): (672, 3),
    ("gauss", 2, "ball"): (504, 2),
    ("gauss", 2, "annulus"): (672, 2),
    ("gauss", 2, "ext"): (1008, 3),
    ("gauss-sum", 2, "full"): (840, 3),
    ("gauss-sum", 2, "ball"): (504, 2),
    ("gauss-sum", 2, "annulus"): (504, 2),
    ("gauss-sum", 2, "ext"): (840, 3),
    ("shifted", 2, "full"): (840, 3),
    ("shifted", 2, "ball"): (504, 2),
    ("shifted", 2, "annulus"): (672, 2),
    ("shifted", 2, "ext"): (840, 3),
    ("box", 2, "full"): (840, 3),
    ("box", 2, "ball"): (504, 2),
    ("box", 2, "annulus"): (672, 2),
    ("box", 2, "ext"): (672, 3),
    ("monomial", 2, "full"): (1176, 3),
    ("monomial", 2, "ball"): (504, 2),
    ("monomial", 2, "annulus"): (672, 2),
    ("monomial", 2, "ext"): (504, 3),
    ("sum", 2, "full"): (840, 3),
    ("sum", 2, "ball"): (504, 2),
    ("sum", 2, "annulus"): (504, 2),
    ("sum", 2, "ext"): (2184, 12),
    ("gauss", 3, "full"): (3780, 3),
    ("gauss", 3, "ball"): (2268, 2),
    ("gauss", 3, "annulus"): (3780, 2),
    ("gauss", 3, "ext"): (2268, 3),
    ("gauss-sum", 3, "full"): (3780, 3),
    ("gauss-sum", 3, "ball"): (2268, 2),
    ("gauss-sum", 3, "annulus"): (2268, 2),
    ("gauss-sum", 3, "ext"): (3024, 3),
    ("shifted", 3, "full"): (5292, 3),
    ("shifted", 3, "ball"): (1512, 2),
    ("shifted", 3, "annulus"): (3024, 2),
    ("shifted", 3, "ext"): (5292, 3),
    ("box", 3, "full"): (3780, 3),
    ("box", 3, "ball"): (1512, 2),
    ("box", 3, "annulus"): (2268, 2),
    ("box", 3, "ext"): (3024, 3),
    ("monomial", 3, "full"): (3780, 3),
    ("monomial", 3, "ball"): (1512, 2),
    ("monomial", 3, "annulus"): (3024, 2),
    ("monomial", 3, "ext"): (3024, 3),
    ("sum", 3, "full"): (3780, 3),
    ("sum", 3, "ball"): (2268, 2),
    ("sum", 3, "annulus"): (2268, 2),
    ("sum", 3, "ext"): (3024, 3),
}


# index in the pool: (pair kind, dimension, region kind, truncation exit),
# (evaluations, field calls).  The first requests of the strata cut at a
# ladder edge, and one each in 2-D grows or stops at the start radius;
# these stop at the cap, and grow or stop at the start in 3-D
EXITS = {
    111: (("box", 2, "ext", "cap"), (2184, 15)),
    143: (("sum", 3, "ext", "cap"), (60480, 22)),
    92: (("sum", 3, "full", "grow"), (18144, 17)),
    176: (("shifted", 3, "full", "start"), (5292, 3)),
}


def _stratum(req):
    return (req["kind"], req["data"]["dimension"],
            req["region"].partition(":")[0])


def _first_of_each_stratum(requests):
    first = {}
    for req in requests:
        first.setdefault(_stratum(req), req)
    return first


with open(POOL, encoding="utf-8") as handle:
    _POOL = json.load(handle)["requests"]
_REQUESTS = _first_of_each_stratum(_POOL)


def test_the_pin_covers_every_stratum():
    assert len(_REQUESTS) == 48 and set(_REQUESTS) == set(COST)


def _run(req, tmp_path, monkeypatch):
    """(evaluations, field calls, truncation exit or None) of a request."""
    calls, exits = [], []
    real, real_cut = SpectralSolution.residual_shells, norms.truncation_radius

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    def cut(field, n, start, **kwargs):
        radius, tail = real_cut(field, n, start, **kwargs)
        exits.append("cap" if radius == TRUNCATION_CAP
                     else "edge" if radius in kwargs["edges"]
                     else "start" if radius == start else "grow")
        return radius, tail

    monkeypatch.setattr(SpectralSolution, "residual_shells", counted)
    monkeypatch.setattr(norms, "truncation_radius", cut)
    data, out = tmp_path / "pair.json", tmp_path / "norm.json"
    data.write_text(json.dumps(req["data"]), encoding="utf-8")
    assert main(["norm", "--data", str(data), "--t", repr(req["t"]),
                 "--k", str(req["k"]), "--region", req["region"],
                 "--tol", repr(req["tol"]), "--out", str(out)]) == 0
    [res] = json.loads(out.read_text(encoding="utf-8"))["results"]
    return res["evaluations"], len(calls), *(exits or [None])


@pytest.mark.parametrize("stratum", list(COST),
                         ids=lambda stratum: "-".join(map(str, stratum)))
def test_a_pool_request_costs_its_pinned_work(stratum, tmp_path, monkeypatch):
    evaluations, calls, _ = _run(_REQUESTS[stratum], tmp_path, monkeypatch)
    assert (evaluations, calls) == COST[stratum]


@pytest.mark.parametrize("index", list(EXITS))
def test_a_truncation_exit_costs_its_pinned_work(index, tmp_path, monkeypatch):
    req = _POOL[index]
    (*stratum, stop), cost = EXITS[index]
    evaluations, calls, seen = _run(req, tmp_path, monkeypatch)
    assert (_stratum(req), seen) == (tuple(stratum), stop)
    assert (evaluations, calls) == cost
