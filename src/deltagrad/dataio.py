"""Dataset parsing, synthetic problem generation, and the history cache format.

Parsers reject malformed input instead of repairing it. The cache format is
versioned little-endian binary and round-trips every f64 bit pattern; a
32-byte content fingerprint ties each cache to the exact dataset (row order
included) it was trained on.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, ParseError
from .models import Dataset, LossConfig
from .trainer import TrainConfig, TrainingHistory, verify_fingerprint

CACHE_MAGIC = b"DGC1"
MODEL_MAGIC = b"DGW1"
FORMAT_VERSION = 1
_LOSS_CODES = {"ridge": 0, "logistic": 1}
_LOSS_NAMES = {v: k for k, v in _LOSS_CODES.items()}


def parse_feature_tokens(tokens, where: str, p: int | None = None) -> list:
    """Parse `idx:val` tokens into (column, value) pairs. Indices are
    1-based, strictly increasing and, when `p` is given, at most p; values
    are finite. Anything else raises ParseError prefixed with `where`."""
    entries = []
    prev = 0
    for tok in tokens:
        idx_s, _, val_s = tok.partition(":")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ParseError(f"{where}: bad feature {tok!r}") from None
        if not math.isfinite(val):
            raise ParseError(f"{where}: non-finite feature {tok!r}")
        if idx < 1:
            raise ParseError(f"{where}: indices are 1-based")
        if idx <= prev:
            raise ParseError(f"{where}: feature indices must be strictly increasing")
        if p is not None and idx > p:
            raise ParseError(f"{where}: feature index {idx} exceeds p = {p}")
        prev = idx
        entries.append((idx - 1, val))
    return entries


def parse_label(text: str, where: str, kind: str) -> float:
    """A label under loss `kind`: ridge keeps any finite real as written;
    logistic takes -1, 0 or +1 and reads 0 as -1."""
    try:
        label = float(text)
    except ValueError:
        raise ParseError(f"{where}: bad label {text!r}") from None
    if kind == "logistic":
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"{where}: label must be -1, 0 or +1")
        return -1.0 if label == 0.0 else label
    if not math.isfinite(label):
        raise ParseError(f"{where}: non-finite label {text!r}")
    return label


def parse_libsvm(path, kind: str = "logistic") -> Dataset:
    """Read `label idx:val ...` lines with 1-based, strictly increasing
    indices per line and finite values. p is the largest index seen. Labels
    follow `parse_label` under loss `kind`. Blank lines separate nothing
    and are ignored."""
    rows = []
    labels = []
    p = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            labels.append(parse_label(tokens[0], f"{path}:{lineno}", kind))
            entries = parse_feature_tokens(tokens[1:], f"{path}:{lineno}")
            if entries:
                p = max(p, entries[-1][0] + 1)
            rows.append(entries)
    if not rows:
        raise ParseError(f"{path}: no samples")
    X = np.zeros((len(rows), p))
    for i, entries in enumerate(rows):
        for j, val in entries:
            X[i, j] = val
    return Dataset(X, np.asarray(labels))


def write_libsvm(data: Dataset, path):
    """Inverse of parse_libsvm; zero entries are omitted."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(data.n):
            label = int(data.labels[i])
            cols = np.nonzero(data.features[i])[0]
            feats = " ".join(f"{j + 1}:{float(data.features[i, j])!r}" for j in cols)
            fh.write(f"{label:+d} {feats}\n".rstrip() + "\n")


def parse_csv(path, label_column: str, kind: str = "ridge") -> Dataset:
    """Dense CSV with a header row; every cell must be a finite number.
    Labels follow `parse_label` under loss `kind`; the default, ridge, keeps
    any finite real."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if label_column not in header:
            raise ParseError(f"{path}: no column named {label_column!r}")
        label_pos = header.index(label_column)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        rows = []
        labels = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells")
            values = []
            for col, cell in zip(header, record):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {col!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}:{lineno}: non-finite cell {cell!r} in column {col!r}"
                    )
                values.append(value)
            labels.append(parse_label(record[label_pos], f"{path}:{lineno}", kind))
            rows.append([values[i] for i in feature_pos])
    if not rows:
        raise ParseError(f"{path}: no samples")
    return Dataset(np.asarray(rows), np.asarray(labels))


def write_csv(data: Dataset, path, label_column: str = "label"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([label_column] + [f"x{j}" for j in range(data.p)])
        for i in range(data.n):
            writer.writerow([repr(float(data.labels[i]))]
                            + [repr(float(v)) for v in data.features[i]])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible classification problem: Gaussian features,
    a planted direction of length `margin`, logistic labels, then a fraction
    `noise` of labels flipped."""

    n: int
    p: int
    noise: float = 0.0
    seed: int = 0
    margin: float = 2.0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise is a probability")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    X = rng.normal(size=(spec.n, spec.p))
    direction = rng.normal(size=spec.p)
    planted = spec.margin * direction / np.linalg.norm(direction)
    prob = 1.0 / (1.0 + np.exp(-X @ planted))
    y = np.where(rng.random(spec.n) < prob, 1.0, -1.0)
    flip = rng.random(spec.n) < spec.noise
    y[flip] = -y[flip]
    return Dataset(X, y)


def _pack_vector(vec: np.ndarray) -> bytes:
    v = np.ascontiguousarray(vec, dtype="<f8")
    return struct.pack("<Q", v.size) + v.tobytes()


def _read_exact(fh, count: int, what: str) -> bytes:
    blob = fh.read(count)
    if len(blob) != count:
        raise CacheFormatError(f"truncated body while reading {what}")
    return blob


def _read_vector(fh, expect: int, what: str) -> np.ndarray:
    (size,) = struct.unpack("<Q", _read_exact(fh, 8, what))
    if size != expect:
        raise CacheFormatError(f"{what}: record length {size} != header p {expect}")
    return np.frombuffer(_read_exact(fh, 8 * size, what), dtype="<f8").astype(np.float64)


def save_cache(history: TrainingHistory, path):
    """Serialize a TrainingHistory.

    Layout: magic, version byte, header (n, p, T, B, seed, loss kind, l2,
    eta schedule, 32-byte dataset fingerprint), then T+1 parameter records
    and T gradient records, each a length-prefixed little-endian f64 vector.
    """
    cfg = history.config
    T = history.iterations
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack(
            "<QQQQQB", history.n, history.p, T, cfg.batch_size, cfg.seed,
            _LOSS_CODES[cfg.loss.kind],
        ))
        fh.write(struct.pack("<d", cfg.loss.l2))
        fh.write(struct.pack("<I", len(cfg.eta_schedule)))
        for start, rate in cfg.eta_schedule:
            fh.write(struct.pack("<Qd", start, rate))
        fh.write(history.fingerprint)
        for row in history.params:
            fh.write(_pack_vector(row))
        for row in history.gradients:
            fh.write(_pack_vector(row))


def load_cache(path, data: Dataset | None = None) -> TrainingHistory:
    """Load a cache; verifies magic, version, record shapes, and (when a
    dataset is supplied) the content fingerprint."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}, expected {CACHE_MAGIC!r}")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version != FORMAT_VERSION:
            raise CacheFormatError(f"unsupported cache version {version}")
        n, p, T, batch, seed, loss_code = struct.unpack(
            "<QQQQQB", _read_exact(fh, 41, "header")
        )
        if loss_code not in _LOSS_NAMES:
            raise CacheFormatError(f"unknown loss code {loss_code}")
        (l2,) = struct.unpack("<d", _read_exact(fh, 8, "header"))
        (n_seg,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
        schedule = []
        for _ in range(n_seg):
            start, rate = struct.unpack("<Qd", _read_exact(fh, 16, "eta schedule"))
            schedule.append((start, rate))
        try:
            cfg = TrainConfig(
                loss=LossConfig(kind=_LOSS_NAMES[loss_code], l2=l2),
                iterations=T,
                batch_size=batch,
                eta_schedule=tuple(schedule),
                seed=seed,
            )
        except ValueError as exc:
            raise CacheFormatError(f"invalid cache header: {exc}") from None
        if batch > n:
            raise CacheFormatError(f"invalid cache header: batch size {batch} exceeds n = {n}")
        fingerprint = _read_exact(fh, 32, "fingerprint")
        params = np.vstack([_read_vector(fh, p, f"parameter record {t}") for t in range(T + 1)])
        if T:
            grads = np.vstack([_read_vector(fh, p, f"gradient record {t}") for t in range(T)])
        else:
            grads = np.zeros((0, p))
        if fh.read(1):
            raise CacheFormatError("trailing bytes after the last record")
    history = TrainingHistory(
        params=params, gradients=grads, config=cfg, n=n, p=p, fingerprint=fingerprint
    )
    if data is not None:
        verify_fingerprint(history, data)
    return history


def save_model(w: np.ndarray, path):
    """Single parameter vector, same record encoding as the cache body."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(_pack_vector(np.asarray(w, dtype=np.float64)))


def load_model(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version != FORMAT_VERSION:
            raise CacheFormatError(f"unsupported model version {version}")
        (size,) = struct.unpack("<Q", _read_exact(fh, 8, "model vector"))
        vec = np.frombuffer(_read_exact(fh, 8 * size, "model vector"), dtype="<f8")
        if fh.read(1):
            raise CacheFormatError("trailing bytes after the model vector")
    return vec.astype(np.float64)
