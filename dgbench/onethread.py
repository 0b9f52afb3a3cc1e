"""Single-thread reference for the full-batch gradient kernel.

Run by the traced gd-delete benchmark run in a child process whose
environment holds OpenBLAS to one thread. It rebuilds the workload's data
from the seed, loads the cached trajectory and times `gradient_sum` over all
rows at every iterate the engine recomputes exactly, printing the mean in
milliseconds as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, help="Workload fields as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    from deltagrad import dataio, models

    import workloads

    w = workloads.Workload(**json.loads(args.workload))
    data = workloads.make_inputs(w, args.seed).data
    history = dataio.load_cache(args.cache, data)
    cfg = history.config.loss
    steps = [t for t in range(w.iterations)
             if t <= w.burn_in or (t - w.burn_in) % w.period == 0]
    models.gradient_sum(cfg, data, history.params[0])      # warm-up
    times = []
    for t in steps:
        t0 = perf_counter()
        models.gradient_sum(cfg, data, history.params[t])
        times.append(perf_counter() - t0)
    print(json.dumps({"full_ms": 1e3 * sum(times) / len(times), "calls": len(times),
                      "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
