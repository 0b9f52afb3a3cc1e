"""deltagrad benchmark: one workload, one run, one JSON result line.

    python3 dgbench/run.py --workload gd-delete-1e5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. `--trace 0` measures the end-to-end metrics
with no wrappers installed. `--trace 1` measures the per-layer metrics:
it runs every request once plain and once traced, and reports the
difference as the tracing overhead. Spans of a traced run are written to
.dgbench-out/. A readable table goes to stderr; stdout ends with a record
line (machine block, seed, input digest, failures) and the result line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "update_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "retrain_s": "s",
    "speedup": "x",
    "peak_rss_mb": "MB",
}
# Printed and recorded with every untraced run, but not bounded metrics:
# failed_ratio is 0 on correct code, and err_ratio varies with the seed by
# more than any bound a regression gate could use (it is checked against
# workloads.ERR_RATIO_BOUND instead).
REPORTED = {"err_ratio": "1", "failed_ratio": "1"}

PER_LAYER = {
    "models.gradient_sum.calls": "count",
    "models.gradient_sum.rows": "count",
    "models.gradient_sum.indexed_rows": "count",
    "models.gradient_sum.busy_s": "s",
    "models.gradient_sum.bytes_computed": "B",
    "models.gradient_sum.full_ms": "ms",
    "models.gradient_sum.full_ms_1t": "ms",
    "models.gradient_sum.indexed_ms": "ms",
    "models.sigmoid.calls": "count",
    "models.sigmoid.busy_s": "s",
    "models.sigmoid.full_ms": "ms",
    "models.fingerprint.calls": "count",
    "models.fingerprint.busy_s": "s",
    "models.fingerprint.bytes": "B",
    "models.fingerprint.ms": "ms",
    "models.extended.calls": "count",
    "models.extended.bytes_copied": "B",
    "lbfgs.quasi_hvp.calls": "count",
    "lbfgs.quasi_hvp.busy_s": "s",
    "lbfgs.quasi_hvp.fresh_us": "us",
    "lbfgs.factorization.builds": "count",
    "lbfgs.factorization.busy_s": "s",
    "lbfgs.factorization.reuse": "count",
    "lbfgs.append_pair.calls": "count",
    "lbfgs.append_pair.rejected": "count",
    "engine.busy_s": "s",
    "engine.self_s": "s",
    "engine.reported_s": "s",
    "engine.iters.explicit": "count",
    "engine.iters.approximated": "count",
    "engine.iters.fallback": "count",
    "engine.iters.skipped": "count",
    "engine.full_gradient_evals_ratio": "1",
    "trainer.train.busy_s": "s",
    "trainer.derive_schedule.calls": "count",
    "trainer.derive_schedule.busy_s": "s",
    "dataio.load_cache.self_s": "s",
    "dataio.load_cache.bytes": "B",
    "dataio.save_cache.busy_s": "s",
    "dataio.save_cache.bytes": "B",
    "dataio.save_model.busy_s": "s",
    "trace.request_s": "s",
    "trace.untraced_request_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.unattributed_s": "s",
}


def _llc():
    """Largest CPU cache (level, bytes) as the kernel lists it for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        entries = os.listdir(base)
    except OSError:
        return best
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best


def machine(x_bytes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    level, llc = _llc()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "llc_level": level,
        "llc_bytes": llc,
        "x_bytes": x_bytes,
        "x_fits_llc": bool(llc and x_bytes <= llc),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deltagrad", "__init__.py")):
        print(f"dgbench: no deltagrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import deltagrad

    import workloads

    if os.path.dirname(os.path.abspath(deltagrad.__file__)) != os.path.join(SRC, "deltagrad"):
        print(f"dgbench: imported deltagrad from {deltagrad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"dgbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".dgbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        run = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        out_dir = os.path.join(ROOT, ".dgbench-out")
        os.makedirs(out_dir, exist_ok=True)
        for phase, tr in run.tracers.items():
            tr.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-{phase}.jsonl.gz"))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in units.items()}
    failed = len(run.checks.failures)
    table = units if args.trace else dict(units, **REPORTED)
    for name, unit in table.items():
        print(f"{args.workload:16s} {name:36s} {run.metrics[name]:14.6g} {unit}", file=sys.stderr)
    for failure in run.checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "machine": machine(run.info["x_bytes"]),
        **run.info,
        "attempted": run.checks.attempted,
        "failures": run.checks.failures,
        **{name: run.metrics.get(name) for name in REPORTED},
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
