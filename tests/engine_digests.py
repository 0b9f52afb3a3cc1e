"""One SHA-256 over the bits of training and of every correction engine.

    PYTHONPATH=src python tests/engine_digests.py [--small] [--per-run]

Trains small logistic and ridge problems with `train_gd` and `train_sgd`,
then runs, at each history size m, a gd deletion (r = 0, 1 and 4), a gd
addition (r = 0, 1 and 3), the general engine, the sgd engine (r = 0 and
3), single online requests (one deletion, one addition) and an online
stream of mixed requests. It hashes every run's final parameters,
corrected iterates and step gradients, mode trace, counters and
per-request records (all but their timings). It prints `single <sha256>`,
the hex digest of every run but the streams of several requests, then the
hex digest of every run. It then runs everything again with gradient
blocks of BLOCK_ROWS rows, so that every full gradient is a sum of several
blocks, fanned out to the helper threads at one iterate, and prints the
same two digests as `blocks-single <sha256>` and `blocks <sha256>`. With
--per-run it first prints
`kind:name <sha256>` for each run, so that two revisions whose digests
differ can be told apart run by run.

Two revisions that print the same digest gave every engine the same bits;
the same `single` digest, every single request and the trainer. A change
that should keep the bits is checked by running this script at both.
pytest does not collect this file; `tests/test_engine.py` runs the
smallest configuration twice and checks that the digests repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import warnings
from unittest import mock

import numpy as np

from deltagrad import (
    ChangeSet,
    Dataset,
    DeltaGradConfig,
    LossConfig,
    TrainConfig,
    models,
    relearn_batch_gd,
    train_gd,
    train_sgd,
    unlearn_batch_gd,
    unlearn_batch_sgd,
    unlearn_general,
    unlearn_online,
)

HISTORY_SIZES = (1, 2, 3, 6)
LOSSES = ("logistic", "ridge")
# below 2^63: numpy keys these seeds' minibatch schedules the same way at
# every revision
SGD_SEED = 2**62 + 5
# rows of a gradient block in the second pass: 8 blocks at n = 120
BLOCK_ROWS = 16


def _problem(kind: str, n: int, p: int, seed: int = 7) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    z = X @ rng.normal(size=p)
    if kind == "logistic":
        y = np.where(z + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    else:
        y = z + 0.1 * rng.normal(size=n)
    return Dataset(X, y)


def _added(kind: str, r: int, p: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(r, p))
    y = np.where(rng.random(r) < 0.5, 1.0, -1.0) if kind == "logistic" else rng.normal(size=r)
    return X, y


def _hash_history(h, history):
    h.update(np.ascontiguousarray(history.params, "<f8").tobytes())
    h.update(np.ascontiguousarray(history.gradients, "<f8").tobytes())


def _hash_outcome(h, outcome):
    h.update(np.ascontiguousarray(outcome.w_final, "<f8").tobytes())
    _hash_history(h, outcome.updated_history)
    h.update("\n".join(outcome.mode_trace).encode())
    for key, value in sorted(outcome.diagnostics.items()):
        if key == "requests":
            value = [{k: v for k, v in rec.items() if k != "seconds"} for rec in value]
        h.update(repr((key, value)).encode())


def _runs(kind: str, n: int, p: int, iterations: int, history_sizes):
    """(name, result) for every run of one loss: a TrainingHistory or an
    UpdateOutcome."""
    data = _problem(kind, n, p)
    loss = LossConfig(kind, 0.05)
    rate = 0.3 if kind == "logistic" else 0.1
    gd = train_gd(data, TrainConfig(loss, iterations, n, ((0, rate),)))
    sgd = train_sgd(data, TrainConfig(loss, iterations, n // 4, ((0, rate),), SGD_SEED))
    yield "train_gd", gd
    yield "train_sgd", sgd
    for m in history_sizes:
        cfg = DeltaGradConfig(period=5, burn_in=10, history_size=m)
        for r in (0, 1, 4):
            yield f"gd-delete-{m}-{r}", unlearn_batch_gd(
                data, gd, ChangeSet.delete(range(3, 3 + r)), cfg)
        for r in (0, 1, 3):
            yield f"gd-add-{m}-{r}", relearn_batch_gd(
                data, gd, ChangeSet.add(*_added(kind, r, p, m)), cfg)
        yield f"general-{m}", unlearn_general(
            data, gd, ChangeSet.delete([1, 5]), DeltaGradConfig(5, 10, m, mode="general"))
        sgd_cfg = DeltaGradConfig(5, 10, m, mode="sgd")
        for r in (0, 3):
            yield f"sgd-{m}-{r}", unlearn_batch_sgd(
                data, sgd, ChangeSet.delete(range(2, 2 + r)), sgd_cfg)
        x, y = _added(kind, 2, p, 100 + m)
        yield f"online-delete-{m}", unlearn_online(data, gd, [ChangeSet.delete([4])], cfg)
        yield f"online-add-{m}", unlearn_online(data, gd, [ChangeSet.add(x[0], y[:1])], cfg)
        stream = [ChangeSet.delete([9]), ChangeSet.add(x[0], y[:1]), ChangeSet.delete([0]),
                  ChangeSet.delete([n]), ChangeSet.add(x[1], y[1:]), ChangeSet.delete([n - 1])]
        yield f"online-stream-{m}", unlearn_online(data, gd, stream, cfg)


def _hash_run(h, kind, name, result):
    h.update(f"{kind}:{name}".encode())
    if hasattr(result, "mode_trace"):
        _hash_outcome(h, result)
    else:
        _hash_history(h, result)


def _several(result) -> bool:
    """Whether a run is a stream of several requests."""
    return hasattr(result, "mode_trace") and len(result.diagnostics["requests"]) > 1


def digests(history_sizes=HISTORY_SIZES, losses=LOSSES, n: int = 120, p: int = 6,
            iterations: int = 40, per_run=None, block_rows=None) -> tuple[str, str]:
    """The hex SHA-256 of every run of `_runs` but the streams of several
    requests, and that of every run, in order, for each loss. `per_run`, a
    callable, is given each run's `kind:name` and the SHA-256 of that run
    alone. With `block_rows`, the gradient kernel sums blocks of that many
    rows (at most) instead of its BLOCK_BYTES blocks."""
    single, h = hashlib.sha256(), hashlib.sha256()
    block_bytes = models.BLOCK_BYTES if block_rows is None else 8 * p * block_rows
    # large deleted fractions of small problems warn
    with warnings.catch_warnings(), mock.patch.object(models, "BLOCK_BYTES", block_bytes):
        warnings.simplefilter("ignore")
        runs = [(kind, name, result) for kind in losses
                for name, result in _runs(kind, n, p, iterations, history_sizes)]
    for kind, name, result in runs:
        _hash_run(h, kind, name, result)
        if not _several(result):
            _hash_run(single, kind, name, result)
        if per_run is not None:
            one = hashlib.sha256()
            _hash_run(one, kind, name, result)
            per_run(f"{kind}:{name}", one.hexdigest())
    return single.hexdigest(), h.hexdigest()


SMALLEST = {"history_sizes": (2,), "losses": ("logistic",), "n": 24, "p": 3, "iterations": 20}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--small", action="store_true", help="the smallest configuration only")
    ap.add_argument("--per-run", action="store_true",
                    help="print `kind:name <sha256>` for every run before the digests")
    args = ap.parse_args(argv)
    per_run = (lambda name, hexdigest: print(name, hexdigest)) if args.per_run else None
    config = SMALLEST if args.small else {}
    single, total = digests(**config, per_run=per_run)
    print("single", single)
    print(total)
    single, total = digests(**config, block_rows=BLOCK_ROWS)
    print("blocks-single", single)
    print("blocks", total)


if __name__ == "__main__":
    main()
