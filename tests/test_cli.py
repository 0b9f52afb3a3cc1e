import json
import struct

import numpy as np
import pytest

from deltagrad import (
    CacheFormatError,
    ChangeSet,
    Dataset,
    DeltaGradConfig,
    ParseError,
    delta_bound,
    load_cache,
    load_model,
    relearn_batch_gd,
    save_model,
    unlearn_batch_gd,
)
from deltagrad import privacy
from deltagrad.cli import _requests_from_file, load_dataset, main, parse_lr_schedule
from deltagrad.privacy import estimate_constants
from oracles import write_csv

SYNTH = "n=1000,p=6,seed=5,noise=0.05,margin=2.0"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def cache(tmp_path):
    path = tmp_path / "run.dgc"
    code = run(
        "train", "--data", SYNTH, "--format", "synthetic",
        "--loss", "logistic", "--l2", "0.01", "--lr", "0.2",
        "--iters", "60", "--seed", "1", "--cache-out", str(path),
    )
    assert code == 0
    return path


def test_lr_schedule_grammar():
    assert parse_lr_schedule("0.1") == ((0, 0.1),)
    assert parse_lr_schedule("0:0.2,10:0.1") == ((0, 0.2), (10, 0.1))


def test_train_writes_loadable_cache(cache):
    hist = load_cache(cache)
    assert hist.iterations == 60
    assert hist.n == 1000 and hist.p == 6


def test_train_zero_iterations(tmp_path):
    path = tmp_path / "w0.dgc"
    assert run("train", "--data", SYNTH, "--format", "synthetic",
               "--iters", "0", "--cache-out", str(path)) == 0
    hist = load_cache(path)
    assert hist.params.shape == (1, 6)


def test_train_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.dgc", tmp_path / "b.dgc"
    argv = ["train", "--data", SYNTH, "--format", "synthetic", "--loss", "logistic",
            "--l2", "0.01", "--lr", "0:0.2,30:0.1", "--iters", "40",
            "--seed", "9", "--cache-out"]
    assert run(*argv, str(a)) == 0
    assert run(*argv, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unlearn_empty_changeset_reports_zero_distances(tmp_path, cache):
    report = tmp_path / "r.json"
    out = tmp_path / "w.dgw"
    code = run(
        "unlearn", "--data", SYNTH, "--format", "synthetic",
        "--cache", str(cache), "--delete-ids", "", "--with-baseline",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["distances"]["uw_iw"] == 0.0
    assert rep["distances"]["uw_w"] == 0.0
    assert rep["exit_status"] == 0


def test_unlearn_report_distances_recomputable(tmp_path, cache):
    report = tmp_path / "r.json"
    out = tmp_path / "w.dgw"
    code = run(
        "unlearn", "--data", SYNTH, "--format", "synthetic",
        "--cache", str(cache), "--delete-ids", "3,17,200", "--with-baseline",
        "--test-data", SYNTH, "--test-format", "synthetic",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    rep = json.loads(report.read_text())
    w_i = load_model(out)
    w_u = load_model(str(out) + ".baseline")
    w = load_cache(cache).params[-1]
    d = rep["distances"]
    assert d["uw_iw"] == pytest.approx(np.linalg.norm(w_u - w_i), abs=1e-9)
    assert d["uw_w"] == pytest.approx(np.linalg.norm(w_u - w), abs=1e-9)
    assert d["w_iw"] == pytest.approx(np.linalg.norm(w - w_i), abs=1e-9)
    # three points in parameter space: distances satisfy the triangle inequality
    assert d["uw_iw"] <= d["uw_w"] + d["w_iw"] + 1e-9
    assert d["uw_w"] <= d["uw_iw"] + d["w_iw"] + 1e-9
    assert "accuracy" in rep["accuracies"]["deltagrad"]


def test_relearn_roundtrip(tmp_path, cache):
    add_file = tmp_path / "extra.svm"
    add_file.write_text("+1 1:0.5 6:1.0\n-1 2:0.25\n")
    out = tmp_path / "w.dgw"
    report = tmp_path / "r.json"
    code = run(
        "relearn", "--data", SYNTH, "--format", "synthetic",
        "--cache", str(cache), "--add-file", str(add_file), "--with-baseline",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["config"]["direction"] == "add"
    assert rep["config"]["r"] == 2
    assert rep["distances"]["uw_iw"] <= rep["distances"]["uw_w"]


def test_online_request_stream(tmp_path, cache):
    rng = np.random.default_rng(0)
    ids = rng.choice(1000, size=100, replace=False)
    reqs = tmp_path / "requests.txt"
    reqs.write_text("".join(f"del {i}\n" for i in ids))
    out = tmp_path / "w.dgw"
    report = tmp_path / "r.json"
    with pytest.warns(UserWarning, match="small fraction"):
        code = run(
            "unlearn", "--data", SYNTH, "--format", "synthetic",
            "--cache", str(cache), "--requests", str(reqs),
            "--with-baseline", "--out", str(out), "--report", str(report),
        )
    assert code == 0
    rep = json.loads(report.read_text())
    assert len(rep["per_request"]) == 100
    assert rep["distances"]["uw_iw"] < rep["distances"]["uw_w"]


NOISE_SYNTH = "n=2000,p=6,seed=5,noise=0.05,margin=2.0"


@pytest.fixture()
def noise_cache(tmp_path):
    path = tmp_path / "noise.dgc"
    assert run("train", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--loss", "logistic", "--l2", "0.1", "--lr", "0.2",
               "--iters", "60", "--seed", "1", "--cache-out", str(path)) == 0
    return path


@pytest.mark.parametrize("width", [3, 7])
def test_noise_rejects_a_model_of_another_width(tmp_path, noise_cache, monkeypatch, width):
    # the model must have the dataset's p = 6 coordinates; a mismatch exits 6
    # before any constant is estimated and writes no model
    model, noised = tmp_path / "w.dgw", tmp_path / "noised.dgw"
    save_model(np.zeros(width), model)
    monkeypatch.setattr(privacy, "estimate_constants",
                        lambda *a, **k: pytest.fail("constants estimated"))
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               "--epsilon", "1.0", "--deleted-count", "2", "--out", str(noised)) == 6
    assert not noised.exists()


def test_noise_command(tmp_path, noise_cache):
    model = tmp_path / "w.dgw"
    assert run("unlearn", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--delete-ids", "1,2",
               "--out", str(model)) == 0

    # probe run to learn the calibrated bound for this problem
    noised = tmp_path / "noised.dgw"
    report = tmp_path / "r.json"
    code = run(
        "noise", "--data", NOISE_SYNTH, "--format", "synthetic",
        "--cache", str(noise_cache), "--model", str(model),
        "--epsilon", "1e12", "--deleted-count", "2", "--seed", "4",
        "--out", str(noised), "--report", str(report),
    )
    assert code == 0
    rep = json.loads(report.read_text())
    delta = rep["delta"]
    assert delta > 0

    # epsilon large enough that the noise scale vanishes: output ~= input
    eps_big = delta * 1e8
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               "--epsilon", repr(eps_big), "--deleted-count", "2", "--seed", "4",
               "--out", str(noised)) == 0
    w, wn = load_model(model), load_model(noised)
    assert np.max(np.abs(w - wn)) <= 1e-6

    # reproducibility under the same seed
    noised2 = tmp_path / "noised2.dgw"
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               "--epsilon", repr(eps_big), "--deleted-count", "2", "--seed", "4",
               "--out", str(noised2)) == 0
    assert noised.read_bytes() == noised2.read_bytes()

    # reported delta matches an offline evaluation of the bound
    class Args:
        data, format, label_column = NOISE_SYNTH, "synthetic", "label"

    data = load_dataset(Args)
    hist = load_cache(noise_cache, data)
    assert rep["delta"] == pytest.approx(delta_bound(estimate_constants(data, hist), 2),
                                         rel=1e-12)


def test_bench_rows_and_counts(tmp_path):
    out_json = tmp_path / "bench.json"
    out_csv = tmp_path / "bench.csv"
    code = run(
        "bench", "--data", "n=500,p=5,seed=3,noise=0.05", "--format", "synthetic",
        "--loss", "logistic", "--l2", "0.01", "--lr", "0.1", "--iters", "110",
        "--rates", "0,0.005,0.01", "--T0-list", "5",
        "--out-json", str(out_json), "--out-csv", str(out_csv),
    )
    assert code == 0
    rows = json.loads(out_json.read_text())["rows"]
    assert len(rows) == 3
    for cell in rows:
        assert cell["scheduled_full_gradient_evals"] == 30       # 10 + ceil(100/5)
        assert cell["full_gradient_evals"] == 30
        assert cell["baseline_gradient_evals"] == 110
        assert cell["speedup"] > 0
    dists = [cell["distances"]["uw_iw"] for cell in rows]
    assert dists == sorted(dists)        # error grows with the delete rate
    assert out_csv.read_text().count("\n") == 4


def test_exit_codes(tmp_path, cache):
    # parse error
    bad = tmp_path / "bad.svm"
    bad.write_text("+1 2:1.0 1:1.0\n")
    assert run("train", "--data", str(bad), "--format", "libsvm",
               "--iters", "1", "--cache-out", str(tmp_path / "x.dgc")) == 3
    # cache format error
    junk = tmp_path / "junk.dgc"
    junk.write_bytes(b"NOPE" + b"\x00" * 64)
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic",
               "--cache", str(junk), "--delete-ids", "1",
               "--out", str(tmp_path / "w.dgw")) == 4
    # fingerprint mismatch (cache trained on different synthetic seed)
    assert run("unlearn", "--data", "n=400,p=6,seed=6,noise=0.05,margin=2.0",
               "--format", "synthetic", "--cache", str(cache),
               "--delete-ids", "1", "--out", str(tmp_path / "w.dgw")) == 5
    # privacy bound undefined (r too large)
    from deltagrad import save_model
    model = tmp_path / "w.dgw"
    save_model(np.zeros(6), model)
    assert run("noise", "--data", SYNTH, "--format", "synthetic",
               "--cache", str(cache), "--model", str(model),
               "--epsilon", "1.0", "--deleted-count", "199",
               "--out", str(tmp_path / "n.dgw")) == 8
    # missing file
    assert run("train", "--data", str(tmp_path / "nope.svm"), "--format", "libsvm",
               "--iters", "1", "--cache-out", str(tmp_path / "x.dgc")) == 11


def test_a_failed_cache_write_keeps_the_old_cache(cache, monkeypatch):
    # a write that fails mid-body is an I/O error (exit 11), and the cache
    # the command would have replaced keeps its bytes; no temporary file is
    # left behind
    from deltagrad import dataio

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    old = cache.read_bytes()
    monkeypatch.setattr(dataio, "_write_records", disk_full)
    assert run("train", "--data", SYNTH, "--format", "synthetic", "--iters", "5",
               "--cache-out", str(cache)) == 11
    assert cache.read_bytes() == old
    assert [entry.name for entry in cache.parent.iterdir()] == [cache.name]


def test_a_failed_report_write_keeps_the_old_report(cache, monkeypatch):
    # a report is replaced as a cache is: an encoder that fails while the
    # report is written is an I/O error (exit 11), the report the command
    # would have replaced keeps its bytes, and no temporary file is left
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    report = cache.parent / "train.json"
    argv = ("train", "--data", SYNTH, "--format", "synthetic", "--iters", "5",
            "--cache-out", str(cache), "--report", str(report))
    assert run(*argv) == 0
    old = report.read_bytes()
    monkeypatch.setattr(json.JSONEncoder, "iterencode", disk_full)
    assert run(*argv) == 11
    assert report.read_bytes() == old
    assert sorted(entry.name for entry in cache.parent.iterdir()) == [cache.name, report.name]


@pytest.mark.parametrize("flag", [("--seed", str(2**64)), ("--lr", f"0:0.2,{2**64}:0.1")])
def test_train_rejects_what_a_cache_cannot_store(tmp_path, capsys, flag):
    # a seed or breakpoint of 2^64 or above is a config error, found before
    # the cache file is opened
    out = tmp_path / "big.dgc"
    assert run("train", "--data", SYNTH, "--format", "synthetic", "--iters", "1",
               *flag, "--cache-out", str(out)) == 10
    assert "64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,message", [
    pytest.param(("--lr", "nan"), "learning rates", id="nan-rate"),
    pytest.param(("--lr", "0:0.2,10:inf"), "learning rates", id="infinite-rate"),
    pytest.param(("--l2", "inf"), "l2", id="infinite-l2"),
    pytest.param(("--data", SYNTH.replace("margin=2.0", "margin=nan")), "margin", id="nan-margin"),
    pytest.param(("--data", SYNTH.replace("margin=2.0", "margin=-inf")), "margin",
                 id="infinite-margin"),
])
def test_non_finite_settings_are_config_errors(tmp_path, capsys, flag, message):
    # a NaN or infinite rate, an infinite l2 or a non-finite synthetic
    # margin is a config error, found before the cache file is opened
    out = tmp_path / "bad.dgc"
    assert run("train", "--data", SYNTH, "--format", "synthetic", "--iters", "1",
               *flag, "--cache-out", str(out)) == 10
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt,text", [("libsvm", "+1\n-1\n"), ("csv", "label\n1\n-1\n")])
def test_data_without_features_exits_3(tmp_path, capsys, fmt, text):
    bare = tmp_path / f"bare.{fmt}"
    bare.write_text(text)
    assert run("train", "--data", str(bare), "--format", fmt, "--label-column", "label",
               "--iters", "1", "--cache-out", str(tmp_path / "x.dgc")) == 3
    assert f"bare.{fmt}: no features" in capsys.readouterr().err


# A DGC1 header field of the `cache` fixture: its byte offset (after the
# 4-byte magic and the version byte), struct format, stored value, and the
# invalid value written over it.
HEADER_EDITS = {
    "batch-size-0": (29, "<Q", 1000, 0),
    "batch-size-above-n": (29, "<Q", 1000, 1001),
    "negative-l2": (46, "<d", 0.01, -0.5),
    "zero-rate": (66, "<d", 0.2, 0.0),
    "nan-rate": (66, "<d", 0.2, float("nan")),
    "infinite-l2": (46, "<d", 0.01, float("inf")),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_invalid_cache_header_field_is_a_format_error(tmp_path, cache, edit):
    offset, fmt, stored, value = HEADER_EDITS[edit]
    blob = bytearray(cache.read_bytes())
    assert struct.unpack_from(fmt, blob, offset)[0] == stored
    struct.pack_into(fmt, blob, offset, value)
    bad = tmp_path / "bad.dgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="invalid cache header"):
        load_cache(bad)
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic",
               "--cache", str(bad), "--delete-ids", "1",
               "--out", str(tmp_path / "w.dgw")) == 4


def test_length_fields_beyond_the_file_exit_4(tmp_path, cache):
    # lengths whose 8x overflows ssize_t: a read sized by one raised
    # OverflowError, which exits 1 with a traceback
    model = tmp_path / "huge.dgw"
    model.write_bytes(b"DGW1\x01" + struct.pack("<Q", 2 ** 62) + bytes(16))
    assert run("noise", "--data", SYNTH, "--format", "synthetic",
               "--cache", str(cache), "--model", str(model),
               "--epsilon", "1.0", "--deleted-count", "1",
               "--out", str(tmp_path / "n.dgw")) == 4
    blob = bytearray(cache.read_bytes())
    p, T = struct.unpack_from("<QQ", blob, 13)
    first = len(blob) - (2 * T + 1) * (8 + 8 * p)
    struct.pack_into("<Q", blob, 13, 2 ** 61)
    struct.pack_into("<Q", blob, first, 2 ** 61)
    bad = tmp_path / "huge.dgc"
    bad.write_bytes(bytes(blob))
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic",
               "--cache", str(bad), "--delete-ids", "1",
               "--out", str(tmp_path / "w.dgw")) == 4


@pytest.mark.parametrize("row", ["+1 0:5.0", "+1 -1:5.0", "+1 2:1.0 2:3.0",
                                 "+1 3:1.0 2:3.0", "+1 7:1.0"])
def test_request_file_add_rows_follow_libsvm_indices(tmp_path, row):
    reqs = tmp_path / "requests.txt"
    reqs.write_text(f"del 4\nadd {row}\n")
    with pytest.raises(ParseError, match=":2:"):
        _requests_from_file(reqs, 6, "logistic")


def test_request_file_add_row_parses(tmp_path):
    # real-valued labels stay accepted: ridge streams add them
    reqs = tmp_path / "requests.txt"
    reqs.write_text("add 0.37 1:5.0 6:-2.5\n")
    (req,) = _requests_from_file(reqs, 6, "ridge")
    np.testing.assert_array_equal(req.features, [[5.0, 0, 0, 0, 0, -2.5]])
    np.testing.assert_array_equal(req.labels, [0.37])
    # a logistic stream follows the libsvm label rule
    reqs.write_text("add 0 1:5.0\n")
    (req,) = _requests_from_file(reqs, 6, "logistic")
    np.testing.assert_array_equal(req.labels, [-1.0])
    reqs.write_text("add 0.5 1:5.0\n")
    with pytest.raises(ParseError, match=":1:"):
        _requests_from_file(reqs, 6, "logistic")


class SynthArgs:
    data, format, label_column = SYNTH, "synthetic", "label"


@pytest.mark.parametrize("kind,label,expect", [
    ("ridge", "2.5", 2.5), ("ridge", "0", 0.0), ("logistic", "0", -1.0), ("logistic", "0.5", None),
])
def test_added_row_labels_follow_the_cache_loss(tmp_path, kind, label, expect):
    cache = tmp_path / "c.dgc"
    assert run("train", "--data", SYNTH, "--format", "synthetic", "--loss", kind,
               "--l2", "0.01", "--lr", "0.2", "--iters", "30", "--cache-out", str(cache)) == 0
    add = tmp_path / "add.svm"
    add.write_text(f"{label} 1:0.5 6:1.0\n")
    out = tmp_path / "w.dgw"
    code = run("relearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--add-file", str(add), "--out", str(out))
    if expect is None:
        assert code == 3
        return
    assert code == 0
    data = load_dataset(SynthArgs)
    change = ChangeSet.add([0.5, 0, 0, 0, 0, 1.0], [expect])
    ref = relearn_batch_gd(data, load_cache(cache, data), change, DeltaGradConfig())
    assert np.array_equal(load_model(out), ref.w_final)


def test_narrow_libsvm_test_set_is_padded(tmp_path, cache):
    argv = ["unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
            "--delete-ids", "3", "--test-format", "libsvm"]
    narrow = tmp_path / "narrow.svm"
    narrow.write_text("+1 1:0.5 2:1.0\n-1 3:0.25\n")      # highest index 3 < p = 6
    out, report = tmp_path / "w.dgw", tmp_path / "r.json"
    assert run(*argv, "--test-data", str(narrow), "--out", str(out), "--report", str(report)) == 0
    X = np.array([[0.5, 1.0, 0, 0, 0, 0], [0, 0, 0.25, 0, 0, 0]])
    pred = np.where(X @ load_model(out) >= 0.0, 1.0, -1.0)
    rep = json.loads(report.read_text())
    assert rep["accuracies"]["deltagrad"]["accuracy"] == np.mean(pred == [1.0, -1.0])
    # a wider test set is a dimension error, found before any model is written
    wide = tmp_path / "wide.svm"
    wide.write_text("+1 7:1.0\n")
    assert run(*argv, "--test-data", str(wide), "--out", str(tmp_path / "x.dgw")) == 6
    assert not (tmp_path / "x.dgw").exists()


def test_ridge_libsvm_test_set_keeps_real_labels(tmp_path):
    cache = tmp_path / "c.dgc"
    assert run("train", "--data", SYNTH, "--format", "synthetic", "--loss", "ridge",
               "--l2", "0.1", "--lr", "0.2", "--iters", "30", "--cache-out", str(cache)) == 0
    test = tmp_path / "t.svm"
    test.write_text("2.5 1:1.0 4:0.5\n0 2:-1.0\n")
    out, report = tmp_path / "w.dgw", tmp_path / "r.json"
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--delete-ids", "3", "--test-data", str(test), "--test-format", "libsvm",
               "--out", str(out), "--report", str(report)) == 0
    X = np.array([[1.0, 0, 0, 0.5, 0, 0], [0, -1.0, 0, 0, 0, 0]])
    mse = np.mean((X @ load_model(out) - [2.5, 0.0]) ** 2)
    assert json.loads(report.read_text())["accuracies"]["deltagrad"]["mse"] == mse


def test_non_finite_rows_are_parse_errors(tmp_path, cache):
    argv = ["--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
            "--out", str(tmp_path / "w.dgw")]
    add = tmp_path / "add.svm"
    add.write_text("+1 1:0.5\n+1 1:nan\n")
    assert run("relearn", *argv, "--add-file", str(add)) == 3
    reqs = tmp_path / "requests.txt"
    reqs.write_text("del 4\nadd +1 1:inf\n")
    assert run("unlearn", *argv, "--requests", str(reqs)) == 3
    with pytest.raises(ParseError, match=":2: non-finite"):
        _requests_from_file(reqs, 6, "logistic")
    reqs.write_text("add inf 1:1.0\n")
    with pytest.raises(ParseError, match=":1: non-finite"):
        _requests_from_file(reqs, 6, "ridge")
    assert not (tmp_path / "w.dgw").exists()


@pytest.mark.parametrize("argv", [
    ["unlearn", "--add-file", "extra.svm"],
    ["relearn", "--add-file", "extra.svm", "--delete-ids", "1"],
    ["relearn", "--add-file", "extra.svm", "--delete-file", "ids.txt"],
    ["relearn", "--add-file", "extra.svm", "--requests", "r.txt"],
])
def test_subcommands_reject_foreign_flags(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(*argv, "--data", SYNTH, "--format", "synthetic",
            "--cache", "c.dgc", "--out", "w.dgw")
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_requests_file_selects_the_stream(tmp_path, cache):
    reqs = tmp_path / "requests.txt"
    reqs.write_text("del 3\ndel 5\n")
    out, report = tmp_path / "w.dgw", tmp_path / "r.json"
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--requests", str(reqs), "--out", str(out), "--report", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["config"]["online"] is True and len(rep["per_request"]) == 2
    assert not np.array_equal(load_model(out), load_cache(cache).params[-1])


@pytest.mark.parametrize("second", [["--delete-ids", "1"], ["--delete-file", "ids.txt"]])
def test_one_change_source_per_unlearn(second, capsys):
    with pytest.raises(SystemExit) as err:
        run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", "c.dgc",
            "--out", "w.dgw", "--requests", "r.txt", *second)
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_ridge_libsvm_data_keeps_real_targets(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 3))
    y = X @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=120)
    data = tmp_path / "r.svm"
    data.write_text("".join(f"{float(y[i])!r} "
                            + " ".join(f"{j + 1}:{float(X[i, j])!r}" for j in range(3)) + "\n"
                            for i in range(120)))
    flags = ["--data", str(data), "--format", "libsvm"]
    cache, out = tmp_path / "c.dgc", tmp_path / "w.dgw"
    assert run("train", *flags, "--loss", "ridge", "--l2", "0.1", "--lr", "0.2",
               "--iters", "30", "--cache-out", str(cache)) == 0
    hist = load_cache(cache)
    assert hist.config.loss.kind == "ridge"
    assert run("unlearn", *flags, "--cache", str(cache), "--delete-ids", "4,9",
               "--out", str(out)) == 0
    ref = unlearn_batch_gd(Dataset(X, y), hist, ChangeSet.delete([4, 9]), DeltaGradConfig())
    assert np.array_equal(load_model(out), ref.w_final)
    # the logistic rule still refuses a real label
    assert run("train", *flags, "--iters", "1", "--cache-out", str(cache)) == 3


def test_csv_test_labels_follow_the_cache_loss(tmp_path, cache):
    test = load_dataset(SynthArgs)
    pm1, zero_one, half = (tmp_path / name for name in ("pm1.csv", "01.csv", "half.csv"))
    write_csv(Dataset(test.features[:200], test.labels[:200]), pm1)
    write_csv(Dataset(test.features[:200], (test.labels[:200] + 1) / 2), zero_one)
    write_csv(Dataset(test.features[:2], [1.0, 0.5]), half)
    scores = []
    for path in (pm1, zero_one):
        report = tmp_path / "r.json"
        assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
                   "--delete-ids", "3", "--test-data", str(path), "--test-format", "csv",
                   "--out", str(tmp_path / "w.dgw"), "--report", str(report)) == 0
        scores.append(json.loads(report.read_text())["accuracies"]["deltagrad"]["accuracy"])
    assert scores[0] == scores[1]
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--delete-ids", "3", "--test-data", str(half), "--test-format", "csv",
               "--out", str(tmp_path / "x.dgw")) == 3


@pytest.mark.parametrize("loss,deleted", [("ridge", "2"), ("logistic", "0")])
def test_noise_with_a_zero_bound_writes_the_model_unchanged(tmp_path, loss, deleted):
    # a ridge Hessian is constant and no deletion moves nothing: either way
    # delta = 0, so the corrected model already is the retrained one
    data = ["--data", "n=1500,p=5,seed=2,noise=0.05", "--format", "synthetic"]
    cache, model, noised = tmp_path / "c.dgc", tmp_path / "w.dgw", tmp_path / "n.dgw"
    report = tmp_path / "r.json"
    assert run("train", *data, "--loss", loss, "--l2", "0.5", "--lr", "0.2",
               "--iters", "40", "--cache-out", str(cache)) == 0
    assert run("unlearn", *data, "--cache", str(cache), "--delete-ids", "1,2",
               "--out", str(model)) == 0
    assert run("noise", *data, "--cache", str(cache), "--model", str(model),
               "--epsilon", "1.0", "--deleted-count", deleted, "--out", str(noised),
               "--report", str(report)) == 0
    assert noised.read_bytes() == model.read_bytes()
    rep = json.loads(report.read_text())
    assert rep["delta"] == 0.0 and rep["scale"] == 0.0


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan"])
def test_noise_needs_a_positive_epsilon(tmp_path, noise_cache, epsilon):
    # the bound itself holds here: test_noise_command noises this cache with r = 2
    from deltagrad import save_model
    model, out = tmp_path / "w.dgw", tmp_path / "n.dgw"
    save_model(np.zeros(6), model)
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               f"--epsilon={epsilon}", "--deleted-count", "2", "--out", str(out)) == 8
    assert not out.exists()


def test_noise_refuses_an_infinite_scale(tmp_path, noise_cache, capsys):
    # delta / epsilon overflows to an infinite scale, which gave a model of
    # +-inf; it exits 8 and writes no model
    from deltagrad import save_model
    model, out = tmp_path / "w.dgw", tmp_path / "n.dgw"
    save_model(np.zeros(6), model)
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               "--epsilon", "5e-324", "--deleted-count", "2", "--out", str(out)) == 8
    assert "noise scale must be > 0 and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--m=-1", "--m=0", "--c1=-0.2", "--c1=0", "--c1=nan",
                                  "--c1=inf"])
def test_noise_needs_a_history_size_and_a_finite_positive_independence(tmp_path, noise_cache,
                                                                        flag):
    # out of range, these constants gave delta = NaN (m = -1), inf (c1 = 0)
    # or a negative delta (c1 = -0.2); each exits 8 and writes no model
    from deltagrad import save_model
    model, out = tmp_path / "w.dgw", tmp_path / "n.dgw"
    save_model(np.zeros(6), model)
    assert run("noise", "--data", NOISE_SYNTH, "--format", "synthetic",
               "--cache", str(noise_cache), "--model", str(model),
               "--epsilon", "1.0", "--deleted-count", "2", flag, "--out", str(out)) == 8
    assert not out.exists()


def test_bad_delete_ids_are_parse_errors(tmp_path, cache, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("3\n1.5\n")
    argv = ["unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
            "--out", str(tmp_path / "w.dgw")]
    assert run(*argv, "--delete-ids", "3,x") == 3
    assert "--delete-ids: bad integer 'x'" in capsys.readouterr().err
    assert run(*argv, "--delete-file", str(ids)) == 3
    assert f"{ids}: bad integer '1.5'" in capsys.readouterr().err
    assert not (tmp_path / "w.dgw").exists()


@pytest.mark.parametrize("flag,text,line,byte,codec", [
    ("libsvm", b"+1 1:0.5\n-1 1:0.25 2:\xc3\n", 2, 0xc3, "ascii"),
    ("csv", b"label,x\n1,0.5\n-1,\xff\n", 3, 0xff, "utf-8"),
    ("--requests", "del 3\ndel \u00e9\n".encode(), 2, 0xc3, "ascii"),
    ("--add-file", b"+1 1:0.5\n+1 1:\xe9\n", 2, 0xe9, "ascii"),
    ("--delete-file", b"3\n\xe9\n", 2, 0xe9, "ascii"),
], ids=["libsvm", "csv", "requests", "add-file", "delete-file"])
def test_undecodable_text_is_a_parse_error(tmp_path, cache, capsys, flag, text, line, byte,
                                           codec):
    # a byte the reader's codec rejects exits 3 and names the file and line
    bad, out = tmp_path / "bad.txt", tmp_path / "out"
    bad.write_bytes(text)
    if flag in ("libsvm", "csv"):
        argv = ["train", "--data", str(bad), "--format", flag, "--label-column", "label",
                "--iters", "1", "--cache-out", str(out)]
    else:
        argv = ["relearn" if flag == "--add-file" else "unlearn", "--data", SYNTH,
                "--format", "synthetic", "--cache", str(cache), flag, str(bad),
                "--out", str(out)]
    assert run(*argv) == 3
    assert f"{bad}:{line}: byte 0x{byte:02x} is not valid {codec}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,text,extra,code,message", [
    ("unlearn", "--requests", "del 3\ndel x\n", [], 3, ":2: bad id 'x'"),
    ("unlearn", "--requests", "mul 3\n", [], 3, ":1: expected 'del' or 'add'"),
    ("unlearn", "--requests", "del 3\nadd\n", [], 3, ":2: bad row ''"),
    ("relearn", "--add-file", "\n  \n\n", [], 3, ": no samples"),
    ("relearn", "--add-file", "+1 1:0.5\n", ["--mode", "sgd"], 10,
     "mode 'sgd' does not support direction 'add'"),
], ids=["del-x", "mul", "bare-add", "blank-add-file", "relearn-sgd"])
def test_bad_requests_and_changes_exit_with_their_class(tmp_path, cache, capsys, command, flag,
                                                        text, extra, code, message):
    # a request line that is not `del <id>` or `add <row>` and an add file of
    # blank lines are parse errors; an addition on the sgd engine is a
    # config error; none of them writes a model
    change, out = tmp_path / "change.txt", tmp_path / "w.dgw"
    change.write_text(text)
    assert run(command, "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               flag, str(change), *extra, "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_periods_are_parsed_as_integers(capsys):
    assert run("bench", "--data", "n=200,p=4,seed=3", "--format", "synthetic",
               "--l2", "0.01", "--iters", "20", "--T0-list", "5,x") == 3
    assert "--T0-list: bad integer 'x'" in capsys.readouterr().err


def test_stream_report_counts_every_request(tmp_path, cache):
    reqs = tmp_path / "requests.txt"
    reqs.write_text("del 3\ndel 5\ndel 7\n")
    report = tmp_path / "r.json"
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--requests", str(reqs), "--out", str(tmp_path / "w.dgw"),
               "--report", str(report)) == 0
    rep = json.loads(report.read_text())
    summary = rep["mode_trace_summary"]
    assert summary["explicit"] + summary["fallback"] == rep["full_gradient_evals"]
    assert sum(summary.values()) == 3 * 60


@pytest.mark.parametrize("argv,message", [
    (["--lr", "0.1x"], "--lr: bad number '0.1x'"),
    (["--lr", "0:0.1,x:0.2"], "--lr: bad integer 'x'"),
    (["--rates", "0,x"], "--rates: bad number 'x'"),
    (["--data", "n=abc,p=3"], "--data n: bad integer 'abc'"),
    (["--data", "n=50,p=3,seed=1.5"], "--data seed: bad integer '1.5'"),
    (["--data", "p=3"], "--data: synthetic spec needs n"),
    (["--data", "n=50,p=3,sed=2"], "--data: unknown synthetic field 'sed'"),
])
def test_bad_numbers_in_flags_are_parse_errors(argv, message, capsys):
    flags = {"--data": "n=200,p=4,seed=3", "--lr": "0.1", "--rates": "0"}
    flags.update(zip(argv[::2], argv[1::2]))
    assert run("bench", "--format", "synthetic", "--l2", "0.01", "--iters", "5",
               *[tok for pair in flags.items() for tok in pair]) == 3
    assert message in capsys.readouterr().err


def test_bad_test_data_spec_names_its_flag(tmp_path, cache, capsys):
    assert run("unlearn", "--data", SYNTH, "--format", "synthetic", "--cache", str(cache),
               "--delete-ids", "3", "--out", str(tmp_path / "w.dgw"),
               "--test-data", "n=20", "--test-format", "synthetic") == 3
    assert "--test-data: synthetic spec needs p" in capsys.readouterr().err
    assert not (tmp_path / "w.dgw").exists()
