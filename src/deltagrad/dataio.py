"""Dataset parsing, synthetic problem generation, and the history cache format.

Parsers reject malformed input instead of repairing it. The cache format is
versioned little-endian binary and round-trips every f64 bit pattern; a
32-byte content fingerprint ties each cache to the exact dataset (row order
included) it was trained on.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, ParseError
from .models import Dataset, LossConfig
from .trainer import TrainConfig, TrainingHistory, require_integer, verify_fingerprint

CACHE_MAGIC = b"DGC1"
MODEL_MAGIC = b"DGW1"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sB")         # every file: magic, version
_HEADER = struct.Struct("<QQQQQBdI")    # DGC1: n, p, T, batch, seed, loss code, l2, segments
_SEGMENT = struct.Struct("<Qd")         # an eta schedule segment: first iteration, rate
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


def text_lines(path, encoding: str, newline=None) -> list:
    """The lines of the text file `path` in `encoding`; a byte the codec
    rejects is a ParseError that names the file and that byte's line."""
    try:
        with open(path, "r", encoding=encoding, newline=newline) as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode(encoding)
        except UnicodeDecodeError as exc:
            line, bad = raw.count(b"\n", 0, exc.start) + 1, raw[exc.start]
            raise ParseError(f"{path}:{line}: byte 0x{bad:02x} is not valid {encoding}") from None
        raise


def parse_libsvm(path, kind: str = "logistic") -> Dataset:
    """Read `label idx:val ...` lines with 1-based, strictly increasing
    indices per line and finite values. p is the largest index seen. Labels
    follow `parse_label` under loss `kind`. Blank lines separate nothing
    and are ignored."""
    rows = []
    labels = []
    p = 0
    for lineno, raw in enumerate(text_lines(path, "ascii"), start=1):
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
    if not p:
        raise ParseError(f"{path}: no features")
    X = np.zeros((len(rows), p))
    for i, entries in enumerate(rows):
        for j, val in entries:
            X[i, j] = val
    return Dataset(X, np.asarray(labels))


def parse_csv(path, label_column: str, kind: str = "ridge") -> Dataset:
    """Dense CSV with a header row; every cell must be a finite number.
    Labels follow `parse_label` under loss `kind`; the default, ridge, keeps
    any finite real."""
    reader = csv.reader(text_lines(path, "utf-8", newline=""))
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
    # an error names its record's first line; a quoted cell may span lines
    lineno = reader.line_num + 1
    for record in reader:
        where, lineno = f"{path}:{lineno}", reader.line_num + 1
        if len(record) != len(header):
            raise ParseError(f"{where}: expected {len(header)} cells")
        values = []
        for col, cell in zip(header, record):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{where}: non-numeric cell {cell!r} in column {col!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"{where}: non-finite cell {cell!r} in column {col!r}")
            values.append(value)
        labels.append(parse_label(record[label_pos], where, kind))
        rows.append([values[i] for i in feature_pos])
    if not rows:
        raise ParseError(f"{path}: no samples")
    if not feature_pos:
        raise ParseError(f"{path}: no features")
    return Dataset(np.asarray(rows), np.asarray(labels))


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
        for name in ("n", "p", "seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise is a probability")
        if not math.isfinite(self.margin):
            raise ValueError("margin must be finite")


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


def _read_exact(fh, count: int, what: str) -> bytes:
    blob = fh.read(count)
    if len(blob) != count:
        raise CacheFormatError(f"truncated body while reading {what}")
    return blob


def _read_prefix(fh, magic: bytes, kind: str):
    """Check the magic and format version that open every file of `kind`."""
    blob = fh.read(_PREFIX.size)
    if blob[:len(magic)] != magic:
        raise CacheFormatError(f"bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    if len(blob) < _PREFIX.size:
        raise CacheFormatError("truncated body while reading version")
    version = _PREFIX.unpack(blob)[1]
    if version != FORMAT_VERSION:
        raise CacheFormatError(f"unsupported {kind} version {version}")


def _record_dtype(p: int) -> np.dtype:
    """One body record: a little-endian u64 length, then p f64."""
    return np.dtype([("size", "<u8"), ("vector", "<f8", (p,))])


def _write_records(fh, *blocks):
    """Write the rows of each 2-D block, in order, as body records of the
    blocks' common width, built as one structured array in one call."""
    p = blocks[0].shape[1]
    body = np.empty(sum(len(block) for block in blocks), dtype=_record_dtype(p))
    body["size"] = p
    np.concatenate(blocks, out=body["vector"])
    fh.write(body.data)


def _read_records(fh, count: int, p: int, what: str) -> np.ndarray:
    """The file's last `count` body records of width p (`what` names the
    last in an error), checked against the bytes left first: a corrupt
    length fails to load instead of sizing a read."""
    size, left = count * (8 + 8 * p), os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size:
        raise CacheFormatError(
            f"truncated body: {left} bytes left, {size} needed through the {what}")
    if left > size:
        raise CacheFormatError(f"trailing bytes after the {what}")
    return np.frombuffer(_read_exact(fh, size, what), dtype=_record_dtype(p))


def _write_atomically(path, write):
    """Call write(fh) on `<path>.<pid>.tmp` in the directory of `path`, then
    rename that file over `path`: a crash or a failed write leaves the old
    file whole. The temporary file is opened as `open` makes any new file,
    so the new file gets the mode a plain write would give it; it is
    removed when anything fails."""
    path = os.fsdecode(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def save_cache(history: TrainingHistory, path):
    """Serialize a TrainingHistory, replacing `path` only once the whole
    file is written. Layout: the prefix, the header, one segment per eta
    schedule breakpoint, the 32-byte dataset fingerprint, then T+1
    parameter records and T gradient records."""
    cfg = history.config

    def write(fh):
        fh.write(_PREFIX.pack(CACHE_MAGIC, FORMAT_VERSION))
        fh.write(_HEADER.pack(history.n, history.p, history.iterations, cfg.batch_size,
                              cfg.seed, _LOSS_CODES[cfg.loss.kind], cfg.loss.l2,
                              len(cfg.eta_schedule)))
        for segment in cfg.eta_schedule:
            fh.write(_SEGMENT.pack(*segment))
        fh.write(history.fingerprint)
        _write_records(fh, history.params, history.gradients)

    _write_atomically(path, write)


def load_cache(path, data: Dataset | None = None) -> TrainingHistory:
    """Load a cache; verifies magic, version, header fields, the body length
    against the file size, every record's length (naming the first bad
    record), and (when a dataset is supplied) the content fingerprint. The
    schedule is read one segment at a time, so a corrupt segment count
    reads no further than the file; the body is read in one call."""
    with open(path, "rb") as fh:
        _read_prefix(fh, CACHE_MAGIC, "cache")
        n, p, T, batch, seed, loss_code, l2, n_seg = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header"))
        if loss_code not in _LOSS_NAMES:
            raise CacheFormatError(f"unknown loss code {loss_code}")
        if p < 1:
            raise CacheFormatError("invalid cache header: p = 0")
        schedule = [_SEGMENT.unpack(_read_exact(fh, _SEGMENT.size, "eta schedule"))
                    for _ in range(n_seg)]
        try:
            cfg = TrainConfig(loss=LossConfig(kind=_LOSS_NAMES[loss_code], l2=l2), iterations=T,
                              batch_size=batch, eta_schedule=tuple(schedule), seed=seed)
        except ValueError as exc:
            raise CacheFormatError(f"invalid cache header: {exc}") from None
        if batch > n:
            raise CacheFormatError(f"invalid cache header: batch size {batch} exceeds n = {n}")
        fingerprint = _read_exact(fh, 32, "fingerprint")
        body = _read_records(fh, 2 * T + 1, p, "last record")
        bad = np.flatnonzero(body["size"] != p)
        if bad.size:
            i = int(bad[0])
            what = f"parameter record {i}" if i <= T else f"gradient record {i - T - 1}"
            raise CacheFormatError(f"{what}: record length {body['size'][i]} != header p {p}")
        params = body["vector"][:T + 1].astype(np.float64)
        grads = body["vector"][T + 1:].astype(np.float64)
    history = TrainingHistory(params, grads, cfg, n, p, fingerprint)
    if data is not None:
        verify_fingerprint(history, data)
    return history


def save_model(w: np.ndarray, path):
    """Single parameter vector as one body record of the cache's layout;
    `path` is replaced only once the whole file is written."""
    def write(fh):
        fh.write(_PREFIX.pack(MODEL_MAGIC, FORMAT_VERSION))
        _write_records(fh, np.asarray(w, dtype=np.float64).reshape(1, -1))

    _write_atomically(path, write)


def load_model(path) -> np.ndarray:
    """Load a model file: its prefix, then one body record that must end
    the file."""
    with open(path, "rb") as fh:
        _read_prefix(fh, MODEL_MAGIC, "model")
        # the record's length prefix alone reads as a record of width 0
        size = np.frombuffer(_read_exact(fh, 8, "model vector"), _record_dtype(0))["size"]
        fh.seek(-8, os.SEEK_CUR)
        return _read_records(fh, 1, int(size[0]), "model vector")["vector"][0].astype(np.float64)
