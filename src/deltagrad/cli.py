"""Command-line interface: train, unlearn, relearn, noise, bench.

Every command is deterministic given its flags, emits machine-readable JSON
reports (stable key order), and exits with a distinct code per error class.
Synthetic datasets are addressed by a spec string instead of a path, e.g.

    deltagrad train --format synthetic --data "n=1000,p=10,seed=0" ...
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import dataio, engine, privacy
from .errors import (
    CacheFormatError,
    ChangeSetError,
    DeltaGradError,
    DimensionMismatchError,
    DivergenceError,
    FingerprintMismatchError,
    ParseError,
    PrivacyBoundError,
)
from .models import Dataset, LossConfig, full_gradient, loss
from .trainer import TrainConfig, TrainingHistory, train_gd, train_sgd

EXIT_CODES = (
    (ParseError, 3),
    (FingerprintMismatchError, 5),
    (CacheFormatError, 4),
    (DimensionMismatchError, 6),
    (DivergenceError, 7),
    (PrivacyBoundError, 8),
    (ChangeSetError, 9),
    (ValueError, 10),
    (OSError, 11),
    (DeltaGradError, 1),
)


def parse_lr_schedule(text: str):
    """"0.1" for a constant rate, or "0:0.2,10:0.1" for breakpoints."""
    text = text.strip()
    if ":" not in text:
        return ((0, float(text)),)
    segments = []
    for part in text.split(","):
        start_s, _, rate_s = part.partition(":")
        segments.append((int(start_s), float(rate_s)))
    return tuple(segments)


def parse_id_list(text: str, where: str):
    """Comma- or space-separated integers; a bad token is a ParseError that
    names `where`, the flag or file the text came from."""
    ids = []
    for tok in text.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise ParseError(f"{where}: bad integer {tok!r}") from None
    return ids


def load_dataset(args, which="data", kind="logistic") -> Dataset:
    """The dataset named by `args.<which>`; libsvm and csv labels follow
    loss `kind`."""
    source = getattr(args, which)
    fmt = getattr(args, which.replace("data", "format"), None) or args.format
    if fmt == "synthetic":
        spec = {}
        for part in source.split(","):
            key, _, val = part.partition("=")
            spec[key.strip()] = val.strip()
        return dataio.generate_synthetic(dataio.SyntheticSpec(
            n=int(spec["n"]),
            p=int(spec["p"]),
            noise=float(spec.get("noise", 0.0)),
            seed=int(spec.get("seed", 0)),
            margin=float(spec.get("margin", 2.0)),
        ))
    if fmt == "libsvm":
        return dataio.parse_libsvm(source, kind)
    if fmt == "csv":
        return dataio.parse_csv(source, args.label_column, kind)
    raise ValueError(f"unknown format {fmt!r}")


def evaluate_predictions(cfg: LossConfig, data: Dataset, w) -> dict:
    scores = data.features @ w
    if cfg.kind == "logistic":
        pred = np.where(scores >= 0.0, 1.0, -1.0)
        return {"accuracy": float(np.mean(pred == data.labels))}
    return {"mse": float(np.mean((scores - data.labels) ** 2))}


def write_report(path, report: dict):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _lines(path):
    """(`path:lineno`, stripped line) for every non-blank line of a text file."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield f"{path}:{lineno}", line


def _parse_row(text: str, where: str, p: int, kind: str):
    """One added row, `label idx:val ...` with libsvm indices (1-based,
    strictly increasing, at most p), as (features, label); the label
    follows `dataio.parse_label` under loss `kind`."""
    tokens = text.split()
    if not tokens:
        raise ParseError(f"{where}: bad row {text!r}")
    label = dataio.parse_label(tokens[0], where, kind)
    row = np.zeros(p)
    for j, val in dataio.parse_feature_tokens(tokens[1:], where, p):
        row[j] = val
    return row, label


def _requests_from_file(path, p: int, kind: str):
    """Request-stream format: one `del <id>` or `add <row>` per line, each
    row read by `_parse_row` under loss `kind`."""
    requests = []
    for where, line in _lines(path):
        op, _, rest = line.partition(" ")
        if op == "del":
            try:
                requests.append(engine.ChangeSet.delete([int(rest)]))
            except ValueError:
                raise ParseError(f"{where}: bad id {rest!r}") from None
        elif op == "add":
            row, label = _parse_row(rest, where, p, kind)
            requests.append(engine.ChangeSet.add(row, [label]))
        else:
            raise ParseError(f"{where}: expected 'del' or 'add'")
    return requests


def _train_from_flags(args, data) -> TrainingHistory:
    """Train with the training flags: GD when --batch is 0 or n, else SGD."""
    cfg = TrainConfig(
        loss=LossConfig(kind=args.loss, l2=args.l2),
        iterations=args.iters,
        batch_size=args.batch if args.batch else data.n,
        eta_schedule=parse_lr_schedule(args.lr),
        seed=args.seed,
    )
    return (train_gd if cfg.batch_size == data.n else train_sgd)(data, cfg)


def cmd_train(args) -> int:
    data = load_dataset(args, kind=args.loss)
    t0 = time.perf_counter()
    history = _train_from_flags(args, data)
    elapsed = time.perf_counter() - t0
    cfg = history.config
    dataio.save_cache(history, args.cache_out)
    final_loss = loss(cfg.loss, data, history.params[-1])
    gnorm = float(np.linalg.norm(full_gradient(cfg.loss, data, history.params[-1])))
    print(f"trained {cfg.iterations} iterations in {elapsed:.3f}s")
    print(f"final loss {final_loss:.10g}  gradient norm {gnorm:.6g}")
    print(f"cache written to {args.cache_out}")
    write_report(args.report, {
        "command": "train",
        "config": {
            "n": data.n, "p": data.p, "loss": args.loss, "l2": args.l2,
            "lr": args.lr, "iters": args.iters, "batch": cfg.batch_size,
            "seed": args.seed,
        },
        "final_loss": final_loss,
        "gradient_norm": gnorm,
        "train_seconds": elapsed,
        "cache": str(args.cache_out),
        "exit_status": 0,
    })
    return 0


def _resolve_change(args, p: int, kind: str) -> engine.ChangeSet:
    if args.command == "relearn":
        rows = [_parse_row(line, where, p, kind) for where, line in _lines(args.add_file)]
        if not rows:
            raise ParseError(f"{args.add_file}: no samples")
        features, labels = zip(*rows)
        return engine.ChangeSet.add(np.array(features), labels)
    if args.delete_file:
        with open(args.delete_file, "r", encoding="ascii") as fh:
            ids = parse_id_list(fh.read(), args.delete_file)
    else:
        ids = parse_id_list(args.delete_ids or "", "--delete-ids")
    return engine.ChangeSet.delete(ids)


def _engine_for(mode: str, direction: str):
    """The engine that serves a (mode, direction) pair."""
    runner = {
        ("gd", "delete"): engine.unlearn_batch_gd,
        ("gd", "add"): engine.relearn_batch_gd,
        ("sgd", "delete"): engine.unlearn_batch_sgd,
        ("general", "delete"): engine.unlearn_general,
    }.get((mode, direction))
    if runner is None:
        raise ValueError(f"mode {mode!r} does not support direction {direction!r}")
    return runner


def _load_test_set(args, p: int, kind: str) -> Dataset:
    """The --test-data set with the model's p features and the labels of
    loss `kind`; a libsvm file is as wide as its highest index, so a
    narrower one gets zero columns."""
    test = load_dataset(args, which="test_data", kind=kind)
    if (args.test_format or args.format) == "libsvm" and test.p < p:
        test = Dataset(np.pad(test.features, ((0, 0), (0, p - test.p))), test.labels)
    if test.p != p:
        raise DimensionMismatchError(f"test set has {test.p} features, the model has {p}")
    return test


def cmd_update(args) -> int:
    # --data is read under the cache's loss; the engine checks its fingerprint
    history = dataio.load_cache(args.cache)
    kind = history.config.loss.kind
    data = load_dataset(args, kind=kind)
    cfg = engine.DeltaGradConfig(
        period=args.T0, burn_in=args.j0, history_size=args.m, mode=args.mode,
    )
    test = _load_test_set(args, history.p, kind) if args.test_data else None

    online = args.command == "unlearn" and args.requests is not None
    if online:
        requests = _requests_from_file(args.requests, history.p, kind)
        outcome = engine.unlearn_online(data, history, requests, cfg,
                                        with_baseline=args.with_baseline)
        change_desc = {"requests": len(requests)}
    else:
        change = _resolve_change(args, history.p, kind)
        runner = _engine_for(args.mode, change.direction)
        outcome = runner(data, history, change, cfg, with_baseline=args.with_baseline)
        change_desc = {"direction": change.direction, "r": change.r}

    dataio.save_model(outcome.w_final, args.out)
    accuracies = {}
    if test is not None:
        accuracies["deltagrad"] = evaluate_predictions(history.config.loss, test, outcome.w_final)
        if args.with_baseline:
            accuracies["baseline"] = evaluate_predictions(
                history.config.loss, test, outcome.diagnostics["baseline_w"]
            )
    if args.with_baseline:
        dataio.save_model(outcome.diagnostics["baseline_w"], args.out + ".baseline")

    report = {
        "command": args.command,
        "config": {
            "T0": args.T0, "j0": args.j0, "m": args.m, "mode": args.mode,
            "online": online, **change_desc,
        },
        "distances": dict(outcome.distances),
        "accuracies": accuracies,
        "timings": dict(outcome.timings),
        "mode_trace_summary": {label: outcome.diagnostics[label]
                               for label in engine.MODE_LABELS},
        "full_gradient_evals": outcome.diagnostics["full_gradient_evals"],
        "model": str(args.out),
        "exit_status": 0,
    }
    if online:
        report["per_request"] = outcome.diagnostics["requests"]
    write_report(args.report, report)
    for key, val in outcome.distances.items():
        print(f"{key} = {val:.6e}")
    for key, val in outcome.timings.items():
        print(f"{key} = {val:.4g}")
    print(f"model written to {args.out}")
    return 0


def cmd_noise(args) -> int:
    if not args.epsilon > 0.0:
        raise PrivacyBoundError("epsilon must be > 0")
    history = dataio.load_cache(args.cache)
    data = load_dataset(args, kind=history.config.loss.kind)
    w = dataio.load_model(args.model)
    est = privacy.estimate_constants(data, history, history_size=args.m,
                                     independence=args.c1)
    delta = privacy.delta_bound(est, args.deleted_count)
    scale = delta / args.epsilon
    # delta = 0: the corrected model already is the retrained one
    noised = privacy.laplace_noise(w, scale, args.seed) if delta > 0.0 else w
    dataio.save_model(noised, args.out)
    print(f"delta = {delta:.6e}  scale = {scale:.6e}")
    print(f"noised model written to {args.out}")
    write_report(args.report, {
        "command": "noise",
        "config": {"epsilon": args.epsilon, "deleted_count": args.deleted_count,
                   "seed": args.seed, "c1": args.c1, "m": args.m},
        "delta": delta,
        "scale": scale,
        "constants": {
            "mu": est.mu, "smoothness": est.smoothness,
            "grad_bound": est.grad_bound, "hessian_lipschitz": est.hessian_lipschitz,
            "amplification": est.amplification, "m1": est.m1,
        },
        "model": str(args.out),
        "exit_status": 0,
    })
    return 0


def cmd_bench(args) -> int:
    data = load_dataset(args, kind=args.loss)
    history = _train_from_flags(args, data)
    rng = np.random.default_rng(args.seed + 1)
    rows = []
    for period in parse_id_list(args.T0_list, "--T0-list"):
        for rate in [float(tok) for tok in args.rates.split(",")]:
            r = int(round(rate * data.n))
            ids = rng.choice(data.n, size=r, replace=False) if r else []
            change = engine.ChangeSet.delete(ids)
            cfg = engine.DeltaGradConfig(period=period, burn_in=args.j0,
                                         history_size=args.m, mode=args.mode)
            outcome = _engine_for(args.mode, "delete")(data, history, change, cfg,
                                                       with_baseline=True)
            diag, timings = outcome.diagnostics, outcome.timings
            cell = {
                "n": data.n, "p": data.p, "r": change.r, "iterations": history.iterations,
                "period": period, "burn_in": args.j0, "baseline_s": timings["baseline_s"],
                "deltagrad_s": timings["deltagrad_s"], "speedup": timings["speedup"],
                "distances": outcome.distances,
                "full_gradient_evals": diag["full_gradient_evals"],
                "scheduled_full_gradient_evals": diag["scheduled_full_gradient_evals"],
                "baseline_gradient_evals": history.iterations,
                "mode_trace_summary": {label: diag[label] for label in engine.MODE_LABELS},
                "rate": rate,
            }
            rows.append(cell)
            print(f"T0={period} rate={rate:.4f} r={r}: baseline {cell['baseline_s']:.3f}s "
                  f"deltagrad {cell['deltagrad_s']:.3f}s speedup {cell['speedup']:.2f}x "
                  f"uw_iw {cell['distances']['uw_iw']:.3e}")
    if args.out_json:
        write_report(args.out_json, {"command": "bench", "rows": rows, "exit_status": 0})
    if args.out_csv:
        cols = ["rate", "r", "period", "burn_in", "baseline_s", "deltagrad_s", "speedup",
                "full_gradient_evals", "scheduled_full_gradient_evals",
                "baseline_gradient_evals"]
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols + ["uw_iw", "uw_w"]) + "\n")
            for cell in rows:
                vals = [str(cell[c]) for c in cols]
                vals += [repr(cell["distances"]["uw_iw"]), repr(cell["distances"]["uw_w"])]
                fh.write(",".join(vals) + "\n")
    return 0


def _add_data_flags(sub, include_label=True):
    sub.add_argument("--data", required=True,
                     help="dataset path, or a synthetic spec like 'n=1000,p=10,seed=0'")
    sub.add_argument("--format", choices=["libsvm", "csv", "synthetic"], default="libsvm")
    if include_label:
        sub.add_argument("--label-column", default="label", help="label column for csv")


def _add_train_flags(sub):
    sub.add_argument("--loss", choices=["logistic", "ridge"], default="logistic")
    sub.add_argument("--l2", type=float, default=0.0)
    sub.add_argument("--lr", default="0.1", help="'0.1' or '0:0.2,10:0.1'")
    sub.add_argument("--iters", type=int, required=True)
    sub.add_argument("--batch", type=int, default=0, help="0 means full batch (GD)")
    sub.add_argument("--seed", type=int, default=0)


def _add_engine_flags(sub):
    sub.add_argument("--cache", required=True)
    sub.add_argument("--T0", type=int, default=5, help="explicit-gradient period")
    sub.add_argument("--j0", type=int, default=10, help="burn-in iterations")
    sub.add_argument("--m", type=int, default=2, help="curvature history size")
    sub.add_argument("--mode", choices=["gd", "sgd", "general"], default="gd")
    sub.add_argument("--with-baseline", action="store_true")
    sub.add_argument("--test-data", default=None)
    sub.add_argument("--test-format", choices=["libsvm", "csv", "synthetic"], default=None)
    sub.add_argument("--out", required=True, help="output model path")
    sub.add_argument("--report", default=None, help="JSON report path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltagrad",
        description="Train with trajectory caching and rapidly update models "
                    "after sample deletion or addition.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="train and cache the optimization path")
    _add_data_flags(train)
    _add_train_flags(train)
    train.add_argument("--cache-out", required=True)
    train.add_argument("--report", default=None)

    unlearn = subs.add_parser("unlearn", help="delete samples from a trained model")
    _add_data_flags(unlearn)
    _add_engine_flags(unlearn)
    change = unlearn.add_mutually_exclusive_group()
    change.add_argument("--delete-ids", default=None, help="comma/space separated row ids")
    change.add_argument("--delete-file", default=None, help="file of row ids")
    change.add_argument("--requests", default=None,
                        help="request stream, processed sequentially: one 'del <id>' "
                             "or 'add <libsvm-row>' per line")

    relearn = subs.add_parser("relearn", help="add samples to a trained model")
    _add_data_flags(relearn)
    _add_engine_flags(relearn)
    relearn.add_argument("--add-file", required=True, help="libsvm rows to add")

    noise = subs.add_parser("noise", help="add calibrated Laplace noise to a model")
    _add_data_flags(noise)
    noise.add_argument("--model", required=True)
    noise.add_argument("--cache", required=True)
    noise.add_argument("--epsilon", type=float, required=True)
    noise.add_argument("--deleted-count", type=int, required=True,
                       help="number of deleted samples the bound should cover")
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--c1", type=float, default=privacy.DEFAULT_INDEPENDENCE,
                       help="strong-independence constant estimate")
    noise.add_argument("--m", type=int, default=2)
    noise.add_argument("--out", required=True)
    noise.add_argument("--report", default=None)

    bench = subs.add_parser("bench", help="sweep delete rates and periods")
    _add_data_flags(bench)
    _add_train_flags(bench)
    bench.add_argument("--rates", default="0,0.005,0.01")
    bench.add_argument("--T0-list", dest="T0_list", default="5")
    bench.add_argument("--j0", type=int, default=10)
    bench.add_argument("--m", type=int, default=2)
    bench.add_argument("--mode", choices=["gd", "sgd"], default="gd")
    bench.add_argument("--out-json", default=None)
    bench.add_argument("--out-csv", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command in ("unlearn", "relearn"):
            return cmd_update(args)
        if args.command == "noise":
            return cmd_noise(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:   # map error classes to distinct exit codes
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
