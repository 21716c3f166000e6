"""Run norm requests with a known slowdown of dampex on every other one.

    python3 perfbench/tests/slowdown_probe.py --parity P --work DIR

Doubles the work of ``SpectralSolution.evaluate`` on the requests whose
index has parity P, runs OPS requests of ``norm-multid`` as the worker does,
and prints their summed wall and rescaled times, split into plain and
slowed requests.  Two runs with parities 0 and 1 slow down each request
once, so their sums compare the same requests with and without the extra
work, in a process whose speed sampler also sees both.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402  (starts the speed sampler, imports dampex)
import workloads  # noqa: E402
from dampex import spectral  # noqa: E402

SEED = 5
OPS = 192


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parity", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    slow = [False]
    evaluate = spectral.SpectralSolution.evaluate

    def doubled(self, *a, **k):
        if slow[0]:
            evaluate(self, *a, **k)
        return evaluate(self, *a, **k)

    spectral.SpectralSolution.evaluate = doubled
    stream = workloads.Stream("norm-multid", SEED)
    runner = worker.Runner("norm-multid", SEED, Path(args.work))
    runner.run(stream.warmup(), timed=False)
    wall, ref = [0.0, 0.0], [0.0, 0.0]
    for index in range(OPS):
        slowed = (index + args.parity) % 2
        slow[0] = bool(slowed)
        start, took = runner.run(stream.next())
        wall[slowed] += took
        ref[slowed] += worker.SAMPLER.rescale(start, start + took)
    worker.SAMPLER.stop()
    print(json.dumps({"wall": wall, "ref": ref,
                      "failed": len(runner.failures)}))


if __name__ == "__main__":
    main()
