import hashlib
import struct

import numpy as np
import pytest

from deltagrad import (
    CacheFormatError,
    Dataset,
    FingerprintMismatchError,
    LossConfig,
    ParseError,
    SyntheticSpec,
    TrainConfig,
    TrainingHistory,
    full_gradient,
    generate_synthetic,
    load_cache,
    load_model,
    save_cache,
    save_model,
    train_gd,
)
from deltagrad.dataio import parse_csv, parse_libsvm
from oracles import write_csv, write_libsvm


# ----------------------------------------------------------------- libsvm

def test_libsvm_basic(tmp_path):
    path = tmp_path / "a.svm"
    path.write_text("+1 1:0.5 3:2.0\n")
    data = parse_libsvm(path)
    assert data.n == 1 and data.p == 3
    np.testing.assert_array_equal(data.features, [[0.5, 0.0, 2.0]])
    assert data.labels[0] == 1.0


def test_libsvm_empty_file(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("")
    with pytest.raises(ParseError, match="no samples"):
        parse_libsvm(path)


@pytest.mark.parametrize("text", ["+1\n-1\n", "+1\n\n0\n"])
def test_libsvm_without_features(tmp_path, text):
    path = tmp_path / "bare.svm"
    path.write_text(text)
    with pytest.raises(ParseError, match=r"bare\.svm: no features$"):
        parse_libsvm(path)


def test_libsvm_zero_label_maps_to_negative(tmp_path):
    path = tmp_path / "z.svm"
    path.write_text("0 1:1.0\n1 1:2.0\n")
    data = parse_libsvm(path)
    np.testing.assert_array_equal(data.labels, [-1.0, 1.0])


def test_libsvm_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:0.5\n+1 2:oops\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_libsvm(path)


def test_libsvm_nonmonotone_indices(tmp_path):
    path = tmp_path / "order.svm"
    path.write_text("+1 3:1.0 2:1.0\n")
    with pytest.raises(ParseError, match="increasing"):
        parse_libsvm(path)


def test_libsvm_bad_label(tmp_path):
    path = tmp_path / "lbl.svm"
    path.write_text("2 1:1.0\n")
    with pytest.raises(ParseError, match="label"):
        parse_libsvm(path)


def test_libsvm_label_that_is_no_number(tmp_path):
    path = tmp_path / "lbl.svm"
    path.write_text("+1 1:1.0\nyes 1:1.0\n")
    with pytest.raises(ParseError, match=r"lbl\.svm:2: bad label 'yes'$"):
        parse_libsvm(path)


@pytest.mark.parametrize("line", ["+1 1:0.5 2:nan", "+1 1:inf", "-1 3:-inf"])
def test_libsvm_rejects_non_finite_features(tmp_path, line):
    path = tmp_path / "nf.svm"
    path.write_text(f"+1 1:1.0\n{line}\n")
    with pytest.raises(ParseError, match=":2: non-finite"):
        parse_libsvm(path)


def test_libsvm_ridge_labels_stay_real(tmp_path):
    path = tmp_path / "r.svm"
    path.write_text("2.5 1:1.0\n0 2:1.0\n")
    np.testing.assert_array_equal(parse_libsvm(path, "ridge").labels, [2.5, 0.0])
    path.write_text("2.5 1:1.0\nnan 2:1.0\n")
    with pytest.raises(ParseError, match=":2: non-finite"):
        parse_libsvm(path, "ridge")


def test_libsvm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.1, 1.0, size=(20, 7))      # dense nonzero keeps p stable
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    data = Dataset(X, y)
    path = tmp_path / "rt.svm"
    write_libsvm(data, path)
    back = parse_libsvm(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


# -------------------------------------------------------------------- csv

def test_csv_basic(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("label,x0\n1.0,2.0\n-1.0,3.0\n")
    data = parse_csv(path, "label")
    assert data.n == 2 and data.p == 1
    np.testing.assert_array_equal(data.labels, [1.0, -1.0])


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="no column"):
        parse_csv(path, "label")


def test_csv_without_features(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("label\n1.0\n-1.0\n")
    with pytest.raises(ParseError, match=r"bare\.csv: no features$"):
        parse_csv(path, "label")


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("label,x0\n1.0,two\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_csv(path, "label")


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "a.csv"
    path.write_text(f"label,x0\n1.0,2.0\n-1.0,{cell}\n")
    with pytest.raises(ParseError, match=":3: non-finite"):
        parse_csv(path, "label")


@pytest.mark.parametrize("text,message", [
    ("", "bad.csv: empty file"),
    ("label,x\n", "bad.csv: no samples"),
    ("label,x\n1,0.5\n-1,0.5,2\n", "bad.csv:3: expected 2 cells"),
], ids=["empty", "header-only", "cell-count"])
def test_csv_without_rows_or_with_a_ragged_row(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{message}$"):
        parse_csv(path, "label")


@pytest.mark.parametrize("text,message", [
    ('label,x\n1,"0.5\n"\n-1,abc\n', "bad.csv:4: non-numeric cell 'abc' in column 'x'"),
    ('label,x\n1,"0.5\n"\n-1\n', "bad.csv:4: expected 2 cells"),
], ids=["cell", "cell-count"])
def test_csv_errors_name_the_physical_line(tmp_path, text, message):
    # a quoted cell that spans two lines is one record: the records after
    # it are named by the line they start on, not by their record number
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(ParseError, match=f"{message}$"):
        parse_csv(path, "label")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(15, 4)), rng.normal(size=15))
    path = tmp_path / "rt.csv"
    write_csv(data, path)
    back = parse_csv(path, "label")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


# -------------------------------------------------------------- synthetic

def test_synthetic_deterministic():
    spec = SyntheticSpec(n=50, p=4, noise=0.1, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.fingerprint() == b.fingerprint()


def test_synthetic_rejects_empty():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, p=4)


def test_synthetic_noise_is_a_probability():
    with pytest.raises(ValueError, match="noise is a probability"):
        SyntheticSpec(n=10, p=2, noise=1.5)


def test_synthetic_separable_is_learnable():
    data = generate_synthetic(SyntheticSpec(n=400, p=6, noise=0.0, seed=2, margin=100.0))
    cfg = TrainConfig(loss=LossConfig("logistic", 1e-4), iterations=300,
                      batch_size=data.n, eta_schedule=((0, 0.4),), seed=0)
    hist = train_gd(data, cfg)
    pred = np.where(data.features @ hist.params[-1] >= 0, 1.0, -1.0)
    assert np.mean(pred == data.labels) >= 0.99


# ------------------------------------------------------------------ cache

@pytest.fixture()
def cached(tmp_path, logistic_data, logistic_history):
    path = tmp_path / "model.dgc"
    save_cache(logistic_history, path)
    return path


def test_cache_round_trip(cached, logistic_data, logistic_history):
    back = load_cache(cached, logistic_data)
    assert np.array_equal(back.params, logistic_history.params)
    assert np.array_equal(back.gradients, logistic_history.gradients)
    assert back.config == logistic_history.config
    assert back.fingerprint == logistic_history.fingerprint
    assert back.n == logistic_history.n and back.p == logistic_history.p


def test_cache_truncated_body(cached, tmp_path):
    blob = cached.read_bytes()
    short = tmp_path / "short.dgc"
    short.write_bytes(blob[:-8])
    with pytest.raises(CacheFormatError, match="truncated"):
        load_cache(short)


def test_cache_bad_magic(cached, tmp_path):
    blob = bytearray(cached.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="magic"):
        load_cache(bad)


def test_cache_bad_version(cached, tmp_path):
    blob = bytearray(cached.read_bytes())
    blob[4] = 99
    bad = tmp_path / "ver.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="version"):
        load_cache(bad)


def test_cache_of_the_magic_alone(tmp_path):
    bad = tmp_path / "magic.dgc"
    bad.write_bytes(b"DGC1")
    with pytest.raises(CacheFormatError, match="truncated body while reading version"):
        load_cache(bad)


def test_cache_with_an_unknown_loss_code(cached, tmp_path):
    # the header after the 5-byte prefix: n, p, T, batch and seed (u64
    # each), then the loss code (u8)
    blob = bytearray(cached.read_bytes())
    blob[5 + 5 * 8] = 7
    bad = tmp_path / "loss.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="unknown loss code 7"):
        load_cache(bad)


def test_cache_trailing_bytes(cached, tmp_path):
    bad = tmp_path / "trail.dgc"
    bad.write_bytes(cached.read_bytes() + b"\x00")
    with pytest.raises(CacheFormatError, match="trailing"):
        load_cache(bad)


def test_cache_with_no_feature_fails_to_load(cached, tmp_path):
    # p = 0 in the header and a body of 2T+1 empty records, whose lengths
    # all agree with it: no training run writes such a file
    blob = bytearray(cached.read_bytes())
    p, T = struct.unpack_from("<QQ", blob, 13)
    struct.pack_into("<Q", blob, 13, 0)
    head = blob[:len(blob) - (2 * T + 1) * (8 + 8 * p)]
    bad = tmp_path / "p0.dgc"
    bad.write_bytes(bytes(head) + struct.pack("<Q", 0) * (2 * T + 1))
    with pytest.raises(CacheFormatError, match="invalid cache header: p = 0"):
        load_cache(bad)


def test_cache_fingerprint_mismatch(cached, logistic_data):
    mutated = Dataset(
        np.where(np.arange(logistic_data.n)[:, None] == 0,
                 logistic_data.features + 1e-9, logistic_data.features),
        logistic_data.labels,
    )
    with pytest.raises(FingerprintMismatchError):
        load_cache(cached, mutated)


def test_cache_preserves_every_bit(tmp_path):
    # exotic float values survive the round trip bit for bit
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(5, 3)) * 1e-300, rng.normal(size=5))
    cfg = TrainConfig(loss=LossConfig("ridge", 0.5), iterations=4, batch_size=5,
                      eta_schedule=((0, 1e-3), (2, 5e-4)), seed=7)
    hist = train_gd(data, cfg)
    path = tmp_path / "tiny.dgc"
    save_cache(hist, path)
    back = load_cache(path, data)
    assert back.params.tobytes() == hist.params.tobytes()
    assert back.gradients.tobytes() == hist.gradients.tobytes()
    assert back.config.eta_schedule == cfg.eta_schedule


def test_model_file_round_trip(tmp_path):
    w = np.random.default_rng(4).normal(size=11)
    path = tmp_path / "w.dgw"
    save_model(w, path)
    assert np.array_equal(load_model(path), w)
    with pytest.raises(CacheFormatError):
        load_cache(path)            # wrong magic for a cache


def _disk_full(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("kind", ["cache", "model"])
def test_a_failed_write_leaves_the_old_file(tmp_path, monkeypatch, logistic_history, kind):
    # a file is written under a temporary name and renamed over the old one:
    # a write that fails once the header is out leaves the old file byte for
    # byte and no temporary file; a new file gets the mode `open` gives
    from deltagrad import dataio

    def save(path):
        if kind == "cache":
            save_cache(logistic_history, path)
        else:
            save_model(logistic_history.params[-1], path)

    path = tmp_path / f"out.{kind}"
    save(path)
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert path.stat().st_mode == plain.stat().st_mode
    plain.unlink()
    old = path.read_bytes()
    monkeypatch.setattr(dataio, "_write_records", _disk_full)
    with pytest.raises(OSError, match="No space left"):
        save(path)
    assert path.read_bytes() == old
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


# Length fields whose 8x overflows ssize_t: a read sized by one raises
# OverflowError, so they must be checked against the file size first.
HUGE_P = 2 ** 61
HUGE_MODEL_LENGTH = 2 ** 62


def test_model_length_beyond_the_file_fails_to_load(tmp_path):
    path = tmp_path / "huge.dgw"
    path.write_bytes(b"DGW1\x01" + struct.pack("<Q", HUGE_MODEL_LENGTH) + bytes(16))
    with pytest.raises(CacheFormatError, match="truncated"):
        load_model(path)


def test_model_trailing_bytes(tmp_path):
    path = tmp_path / "w.dgw"
    save_model(np.ones(3), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CacheFormatError, match="trailing"):
        load_model(path)


def test_cache_record_lengths_beyond_the_file_fail_to_load(cached, tmp_path):
    # p in the header and the first record's length prefix agree, so only a
    # check against the bytes left in the file can catch them
    blob = bytearray(cached.read_bytes())
    p, T = struct.unpack_from("<QQ", blob, 13)
    first = len(blob) - (2 * T + 1) * (8 + 8 * p)
    assert struct.unpack_from("<Q", blob, first) == (p,)
    struct.pack_into("<Q", blob, 13, HUGE_P)
    struct.pack_into("<Q", blob, first, HUGE_P)
    bad = tmp_path / "huge.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="truncated"):
        load_cache(bad)


def test_cache_body_is_length_prefixed_records(cached, logistic_history):
    # the one-call writer lays out the DGC1 body as T+1 parameter records,
    # then T gradient records, each a u64 length and p little-endian f64
    blob = cached.read_bytes()
    p = logistic_history.p
    rows = list(logistic_history.params) + list(logistic_history.gradients)
    body = b"".join(struct.pack("<Q", p) + np.asarray(row, "<f8").tobytes() for row in rows)
    assert blob.endswith(body) and len(blob) > len(body)


@pytest.mark.parametrize("record, name", [(0, "parameter record 0"), (5, "parameter record 5"),
                                          (61, "gradient record 0"), (120, "gradient record 59")])
def test_cache_names_the_first_bad_record(cached, tmp_path, logistic_history, record, name):
    # a record whose length prefix disagrees with the header's p fails to
    # load, naming the first such record; the logistic history has T = 60
    blob = bytearray(cached.read_bytes())
    p, T = logistic_history.p, logistic_history.iterations
    first = len(blob) - (2 * T + 1) * (8 + 8 * p)
    struct.pack_into("<Q", blob, first + record * (8 + 8 * p), p + 1)
    struct.pack_into("<Q", blob, first + 120 * (8 + 8 * p), p - 1)    # a later bad record
    bad = tmp_path / "bad.dgc"
    bad.write_bytes(bytes(blob))
    length = p - 1 if record == 120 else p + 1
    message = f"^{name}: record length {length} != header p {p}$"
    with pytest.raises(CacheFormatError, match=message):
        load_cache(bad)


def _pinned_history(kind, batch_size):
    """A T = 3, p = 4 history made of chosen bits (-0, an infinity, a NaN, a
    subnormal, 1e300 multiples), so that its cache depends on the format
    alone, with three rate segments and a seed above 2^63."""
    T, p = 3, 4
    params = np.arange((T + 1) * p, dtype=np.float64).reshape(T + 1, p) / 7.0
    params[1] = [-0.0, np.inf, np.nan, 5e-324]
    grads = np.arange(T * p, dtype=np.float64).reshape(T, p) * -1e300
    cfg = TrainConfig(loss=LossConfig(kind, 0.25), iterations=T, batch_size=batch_size,
                      eta_schedule=((0, 0.5), (1, 0.25), (2, 0.125)), seed=2**63 + 5)
    return TrainingHistory(params, grads, cfg, 6, p, bytes(range(32)))


PINNED_DIGESTS = {
    "full-batch": "d807fa9f045b55e5a3275ea8dd0121f1ef6c811ff8bbe683fcb891fe4423ea4e",
    "minibatch": "a7e298ba1dfbbe5c318843684e01f97392c1db85599af78aaef3935b37317105",
    "model": "6342b7f4e3126c58b4c257d3e5017a44f58ab89aea0fd6977292faf2d024cc12",
    "empty-model": "f28975dff537b1edead4113c0738401af391b0d537e824413a4df8402c9c0bb9",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_file_bytes_are_pinned(tmp_path, name):
    # DGC1 and DGW1 files keep their bytes: each SHA-256 was taken from the
    # writers that spelled the header field by field, and each file loads
    # back bit for bit
    full = _pinned_history("ridge", 6)
    value = {"full-batch": full, "minibatch": _pinned_history("logistic", 4),
             "model": full.params[1], "empty-model": np.zeros(0)}[name]
    path = tmp_path / name
    if name.endswith("model"):
        save_model(value, path)
        assert load_model(path).tobytes() == value.tobytes()
    else:
        save_cache(value, path)
        back = load_cache(path)
        assert back.params.tobytes() == value.params.tobytes()
        assert back.gradients.tobytes() == value.gradients.tobytes()
        assert back.config == value.config and back.fingerprint == value.fingerprint
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name]


def test_a_segment_count_beyond_the_file_fails_to_load(cached, tmp_path):
    # the largest u32 segment count promises 64 GiB of schedule: loading
    # reads no further than the file and fails as a format error, without
    # sizing a read or a list by the count
    blob = bytearray(cached.read_bytes())
    struct.pack_into("<I", blob, 54, 2**32 - 1)
    bad = tmp_path / "segments.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="truncated"):
        load_cache(bad)
