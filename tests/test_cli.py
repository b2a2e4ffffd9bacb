import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from ptychokit import cli, dataset, gridio, model, recon, verify
from ptychokit.config import RunConfig

TINY = ["--set", "rows=4", "--set", "cols=4", "--set", "train_rows=3",
        "--set", "test_rows=1", "--set", "object_size=100",
        "--set", "n_c=4", "--set", "epochs=1", "--set", "batch_size=8"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data, run = str(root / "data"), str(root / "run")
    assert cli.main(["simulate", "--out", data, "--seed", "1"] + TINY) == 0
    assert cli.main(["train", "--data", data, "--out", run, "--seed", "1"] + TINY) == 0
    return root, data, run


def test_simulate_outputs(pipeline):
    _, data, _ = pipeline
    assert os.path.exists(os.path.join(data, "manifest.csv"))
    assert os.path.exists(os.path.join(data, "probe.ptg"))
    meta = json.load(open(os.path.join(data, "meta.json")))
    assert len(meta["config_hash"]) == 12
    assert b"\r" not in open(os.path.join(data, "manifest.csv"), "rb").read()


def test_simulate_writes_each_frame_file_as_write_grid_does(tmp_path):
    # the three kinds of frame file are written on a thread each, into a
    # directory each; every file holds the bytes write_grid writes of the array
    # simulated anew here, and the tree holds only the files the manifest names
    # and the fixed ones
    data = tmp_path / "data"
    assert cli.main(["simulate", "--out", str(data), "--seed", "1"] + TINY) == 0
    cfg = RunConfig.from_file(data / "config.txt")
    v = cfg.values
    amp, phase = dataset.gen_object(v["object_size"], v["object_size"], v["object_seed"])
    plan = dataset.plan_scan(v["rows"], v["cols"], v["step"], v["jitter_max"],
                             v["probe_size"], v["scan_seed"])
    intensity, _, _ = dataset.make_dataset(amp, phase, cfg.make_probe(), plan, cfg.noise_cfg())
    rows = dataset.read_table(data / "manifest.csv", dataset.MANIFEST_FIELDS,
                              dataset.MANIFEST_INT_FIELDS)
    p, want, named = intensity.shape[-1], tmp_path / "want.ptg", set()
    for i, row in enumerate(rows):
        window = (slice(row["y"], row["y"] + p), slice(row["x"], row["x"] + p))
        for kind, folder, grid in (("intensity", "frames", intensity[i]),
                                   ("amplitude", "amplitude", amp[window]),
                                   ("phase", "phase", phase[window])):
            assert row[kind] == f"{folder}/{i:05d}_{kind}.ptg"
            gridio.write_grid(want, grid)
            assert (data / row[kind]).read_bytes() == want.read_bytes()
            named.add(row[kind])
    fixed = {"config.txt", "manifest.csv", "meta.json", "object_amplitude.ptg",
             "object_phase.ptg", "probe.ptg"}
    found = {os.path.relpath(os.path.join(root, name), data)
             for root, _, names in os.walk(data) for name in names}
    assert len(named) == 3 * 16 and found == named | fixed


def test_simulate_failing_to_write_a_frame_file_is_one_line_error(capsys, tmp_path):
    # the error of a writing thread ends the command once every thread has ended
    data = tmp_path / "data"
    blocker = data / "amplitude" / "00003_amplitude.ptg"
    blocker.mkdir(parents=True)
    threads = threading.active_count()
    assert cli.main(["simulate", "--out", str(data), "--seed", "1"] + TINY) == 1
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(blocker) in err


def test_train_outputs(pipeline):
    _, _, run = pipeline
    assert os.path.exists(os.path.join(run, "checkpoint", "manifest.json"))
    log = open(os.path.join(run, "loss_log.csv")).read().splitlines()
    assert log[0].startswith("step,lr,")
    assert len(log) > 1


def test_infer_stitch_evaluate_spectrum(pipeline):
    root, data, run = pipeline
    pred, stitched, ev, spec = (str(root / n) for n in ("pred", "stitched", "eval", "spec"))
    ckpt = os.path.join(run, "checkpoint")
    assert cli.main(["infer", "--ckpt", ckpt, "--data", data, "--out", pred]) == 0
    assert cli.main(["stitch", "--pred", pred, "--out", stitched] + TINY) == 0
    assert cli.main(["evaluate", "--ckpt", ckpt, "--data", data, "--out", ev] + TINY) == 0
    assert cli.main(["spectrum", "--grid", os.path.join(ev, "phase_hat.ptg"),
                     "--out", spec]) == 0
    amp = gridio.read_grid(os.path.join(stitched, "stitched_amp.ptg"))
    assert amp.ndim == 2 and np.all(np.isfinite(amp))
    assert os.path.exists(os.path.join(ev, "report.txt"))
    assert os.path.exists(os.path.join(ev, "report.csv"))
    bands = json.load(open(os.path.join(spec, "bands.json")))
    assert bands["low"] + bands["mid"] + bands["high"] == pytest.approx(100.0)
    for table in (os.path.join(pred, "predictions.csv"), os.path.join(run, "loss_log.csv"),
                  os.path.join(ev, "report.csv")):
        assert b"\r" not in open(table, "rb").read()


def test_epie_subcommand(pipeline):
    root, data, _ = pipeline
    out = str(root / "epie")
    assert cli.main(["epie", "--data", data, "--out", out, "--seed", "1"] + TINY
                    + ["--set", "epie_iters=3"]) == 0
    hist = open(os.path.join(out, "error_history.txt")).read().splitlines()
    assert len(hist) == 3


def test_epie_checks_dataset_hash(pipeline, capsys, tmp_path):
    _, data, _ = pipeline
    args = ["epie", "--data", data, "--out", str(tmp_path / "e"), "--seed", "2"] + TINY \
        + ["--set", "epie_iters=1"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "mismatch" in err and "\n" not in err
    assert cli.main(args + ["--force"]) == 0


def test_infer_reads_only_its_split(pipeline, monkeypatch, tmp_path):
    _, data, run = pipeline
    ckpt = os.path.join(run, "checkpoint")
    read = []
    real_read = gridio.read_grid
    monkeypatch.setattr(gridio, "read_grid", lambda path: read.append(path) or real_read(path))
    assert cli.main(["infer", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "p"),
                     "--split", "test"]) == 0
    frames = [r for r in read if os.sep + "frames" + os.sep in r]
    # TINY has 4 test frames: one intensity grid each, no ground truth
    assert len(frames) == 4 and all(r.endswith("_intensity.ptg") for r in frames)


def test_empty_split_is_one_line_error(pipeline, capsys, tmp_path):
    _, _, run = pipeline
    data = str(tmp_path / "d")
    assert cli.main(["simulate", "--out", data, "--seed", "1"] + TINY
                    + ["--set", "val_fraction=0"]) == 0
    rc = cli.main(["infer", "--ckpt", os.path.join(run, "checkpoint"), "--data", data,
                   "--out", str(tmp_path / "p"), "--split", "val", "--force"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {data}/manifest.csv: no frames in split 'val'"


# 64 frames: two batches of `recon.iter_infer`
EIGHT_BY_EIGHT = TINY + ["--set", "rows=8", "--set", "cols=8", "--set", "train_rows=7"]


def test_evaluate_reads_each_batch_after_the_previous_forward(pipeline, tmp_path,
                                                             monkeypatch):
    _, _, run = pipeline
    data = str(tmp_path / "d")
    assert cli.main(["simulate", "--out", data, "--seed", "1"] + EIGHT_BY_EIGHT) == 0
    events = []
    read_grid, forward = gridio.read_grid, model.forward

    def counted_read(path):
        if str(path).endswith("_intensity.ptg"):
            events.append("read")
        return read_grid(path)

    def counted_forward(intensity, *args, **kwargs):
        events.append(("forward", len(intensity)))
        return forward(intensity, *args, **kwargs)

    monkeypatch.setattr(gridio, "read_grid", counted_read)
    monkeypatch.setattr(model, "forward", counted_forward)
    assert cli.main(["evaluate", "--ckpt", os.path.join(run, "checkpoint"), "--data", data,
                     "--out", str(tmp_path / "ev"), "--split", "all", "--force"]
                    + EIGHT_BY_EIGHT) == 0
    assert events == (["read"] * 32 + [("forward", 32)]) * 2


def test_evaluate_with_a_damaged_last_frame_writes_nothing(pipeline, capsys, tmp_path):
    # frames are read batch by batch, and the report only after the last batch
    _, _, run = pipeline
    data = str(tmp_path / "d")
    assert cli.main(["simulate", "--out", data, "--seed", "1"] + EIGHT_BY_EIGHT) == 0
    path = os.path.join(data, "frames", "00063_intensity.ptg")
    gridio.write_grid(path, -gridio.read_grid(path))
    out = tmp_path / "ev"
    rc = cli.main(["evaluate", "--ckpt", os.path.join(run, "checkpoint"), "--data", data,
                   "--out", str(out), "--split", "all", "--force"] + EIGHT_BY_EIGHT)
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {path}: negative intensity"
    assert not out.exists()


def test_train_refuses_empty_val_split(capsys, tmp_path):
    # model selection needs validation frames; none is taken from the training split
    data = str(tmp_path / "d")
    no_val = TINY + ["--set", "val_fraction=0"]
    assert cli.main(["simulate", "--out", data, "--seed", "1"] + no_val) == 0
    capsys.readouterr()
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run"), "--seed", "1"]
                  + no_val)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: empty validation split") and "\n" not in err
    assert not os.path.exists(tmp_path / "run" / "checkpoint")


def test_hash_mismatch_refused(pipeline, capsys):
    _, data, _ = pipeline
    rc = cli.main(["train", "--data", data, "--out", "/tmp/nope", "--seed", "2"] + TINY)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mismatch" in err


def test_dataset_without_hash_refused(pipeline, capsys, tmp_path):
    _, data, _ = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    meta = json.load(open(copy / "meta.json"))
    del meta["config_hash"]
    json.dump(meta, open(copy / "meta.json", "w"))
    args = ["train", "--data", str(copy), "--out", str(tmp_path / "run"), "--seed", "1"] + TINY
    assert cli.main(args) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "missing" in err and "\n" not in err
    assert cli.main(args + ["--force"]) == 0


def test_checkpoint_without_hash_refused(pipeline, capsys, tmp_path):
    _, data, run = pipeline
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(os.path.join(run, "checkpoint"), ckpt)
    manifest = json.load(open(ckpt / "manifest.json"))
    manifest["config_hash"] = ""
    json.dump(manifest, open(ckpt / "manifest.json", "w"))
    args = ["infer", "--ckpt", str(ckpt), "--data", data, "--out", str(tmp_path / "p")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "missing" in err and "\n" not in err
    assert cli.main(args + ["--force"]) == 0


@pytest.mark.parametrize("kind", ["nan", "non_square", "zero"])
def test_bad_probe_is_one_line_error(pipeline, capsys, tmp_path, kind):
    _, data, _ = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    probe = copy / "probe.ptg"
    shape = (32, 30, 2) if kind == "non_square" else (32, 32, 2)
    gridio.write_grid(probe, np.zeros(shape) if kind == "zero" else np.ones(shape))
    if kind == "nan":  # write_grid refuses NaN, so patch the payload
        probe.write_bytes(probe.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    rc = cli.main(["train", "--data", str(copy), "--out", str(tmp_path / "run"),
                   "--seed", "1"] + TINY)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "probe" in err and "\n" not in err


def test_epie_reads_only_intensities(pipeline, monkeypatch, tmp_path):
    _, data, _ = pipeline
    read = []
    real_read = gridio.read_grid
    monkeypatch.setattr(gridio, "read_grid", lambda path: read.append(path) or real_read(path))
    assert cli.main(["epie", "--data", data, "--out", str(tmp_path / "e"), "--seed", "1"]
                    + TINY + ["--set", "epie_iters=1"]) == 0
    frames = [r for r in read if os.sep + "frames" + os.sep in r]
    # TINY has 16 frames: one intensity grid each, no ground truth
    assert len(frames) == 16 and all(r.endswith("_intensity.ptg") for r in frames)


def test_variant_trained_then_evaluated(pipeline, tmp_path):
    _, data, _ = pipeline
    out = str(tmp_path / "v")
    assert cli.main(["train", "--data", data, "--out", out, "--seed", "1"] + TINY
                    + ["--set", "variant=no_skip"]) == 0
    assert cli.main(["evaluate", "--ckpt", os.path.join(out, "checkpoint"), "--data", data,
                     "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "checkpoint", "manifest.json")))
    assert manifest["cfg"]["variant"] == "no_skip"
    meta = json.load(open(os.path.join(data, "meta.json")))
    report = open(os.path.join(out, "report.txt")).read().splitlines()
    assert report[0] == f"config_hash: {meta['config_hash']}"


@pytest.mark.parametrize("iters", ["0", "-2"])
def test_epie_without_sweeps_is_one_line_error(pipeline, capsys, tmp_path, iters):
    _, data, _ = pipeline
    out = tmp_path / "e"
    rc = cli.main(["epie", "--data", data, "--out", str(out), "--seed", "1"] + TINY
                  + ["--set", f"epie_iters={iters}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: need epie_iters >= 1, got {iters}\n"
    assert not os.path.exists(out)


# the last key set is the one the error must name
@pytest.mark.parametrize("sets", ["train_rows=5 test_rows=-1", "test_rows=4 train_rows=0",
                                  "val_fraction=2", "val_fraction=-0.5", "val_fraction=1"])
def test_simulate_refuses_bad_split(capsys, tmp_path, sets):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--seed", "1"] + TINY
                  + [arg for kv in sets.split() for arg in ("--set", kv)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: need") and "\n" not in err
    assert sets.split()[-1].split("=")[0] in err
    assert not os.path.exists(tmp_path / "d")


def test_negative_master_seed_is_one_line_error(capsys, tmp_path):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--seed", "-5"] + TINY)
    assert rc == 1
    assert capsys.readouterr().err == "error: need seed >= 0, got -5\n"
    assert not os.path.exists(tmp_path / "d")


def test_explicit_set_seed_wins_over_master_seed(tmp_path):
    # --seed sets every *_seed key before the --set overrides, so an explicit key stays
    out = tmp_path / "d"
    assert cli.main(["simulate", "--out", str(out), "--set", "object_seed=5", "--seed", "1"]
                    + TINY) == 0
    lines = (out / "config.txt").read_text().splitlines()
    assert "object_seed = 5" in lines and "scan_seed = 1" in lines


@pytest.mark.parametrize("bad", ["step=-8", "step=0", "jitter_max=-1", "cols=0"])
def test_simulate_refuses_bad_scan(capsys, tmp_path, bad):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--seed", "1"] + TINY
                  + ["--set", bad])
    assert rc == 1
    key, value = bad.split("=")
    minimum = 0 if key == "jitter_max" else 1
    assert capsys.readouterr().err == f"error: need {key} >= {minimum}, got {value}\n"
    assert not os.path.exists(tmp_path / "d")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["object_size=10", "probe_size=0", "probe_size=-4",
                                 "probe_radius=0", "probe_sigma=0", "probe_sigma=-1",
                                 "probe_sigma=1e-3", "object_seed=-5", "noise=7"])
def test_simulate_refuses_bad_object_or_probe(capsys, tmp_path, bad):
    # one error line naming the key; a numpy warning would be an error here
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--seed", "1"] + TINY
                  + ["--set", bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need ") and err.count("\n") == 1, err
    assert bad.split("=")[0] in err
    assert not os.path.exists(tmp_path / "d")


@pytest.mark.parametrize("bad", ["batch_size=0", "eta=nan", "clip_norm=inf", "rows=4.7",
                                 "n_c=0", "alpha=nan", "alpha=-1", "lam_s=nan",
                                 "half_cycle_epochs=0", "g0=1e9", "g0=-1e9", "g0=-1023", "g_h=1e9",
                                 "epie_beta=0", "epie_beta=-1", "epie_beta=1e9",
                                 "stitch_weight_floor=-1"])
def test_bad_value_is_one_line_error(pipeline, capsys, tmp_path, bad):
    _, data, _ = pipeline
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run"), "--seed", "1"]
                  + TINY + ["--set", bad])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert bad.split("=")[0] in err


@pytest.mark.parametrize("bad", ["read_sigma=nan", "peak_photons=nan", "peak_photons=inf",
                                 "probe_radius=-inf"])
def test_simulate_refuses_non_finite_value(capsys, tmp_path, bad):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--seed", "1"] + TINY
                  + ["--set", "noise=1", "--set", bad])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and f"'{bad.split('=')[0]}'" in err
    assert not os.path.exists(tmp_path / "d")


@pytest.mark.parametrize("stage", ["infer", "epie"])
def test_negative_intensity_is_one_line_error(pipeline, capsys, tmp_path, stage):
    _, data, run = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    frame = copy / "frames" / "00000_intensity.ptg"
    grid = gridio.read_grid(frame)
    grid[3, 4] = -1.0
    gridio.write_grid(frame, grid)
    args = {"infer": ["infer", "--ckpt", os.path.join(run, "checkpoint"), "--split", "all"],
            "epie": ["epie", "--seed", "1"] + TINY + ["--set", "epie_iters=1"]}[stage]
    rc = cli.main(args + ["--data", str(copy), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert err.endswith("00000_intensity.ptg: negative intensity")


@pytest.mark.parametrize("stage", ["train", "epie", "stitch"])
def test_wrong_frame_or_prediction_shape_is_one_line_error(pipeline, capsys, tmp_path, stage):
    # one 16 x 16 file among 32 x 32 ones: a frame intensity (train, epie) or a
    # prediction (stitch) is refused by name
    _, data, run = pipeline
    if stage == "stitch":
        pred = tmp_path / "pred"
        assert cli.main(["infer", "--ckpt", os.path.join(run, "checkpoint"), "--data", data,
                         "--out", str(pred)]) == 0
        target = pred / "pred" / "00001_amp.ptg"
        args = ["stitch", "--pred", str(pred)] + TINY
    else:
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        target = copy / "frames" / "00001_intensity.ptg"
        args = [stage, "--data", str(copy), "--seed", "1"] + TINY + ["--set", "epie_iters=1"]
    gridio.write_grid(target, gridio.read_grid(target)[:16, :16])
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{target}: " in err and "(16, 16)" in err


def _rewrite_grid(path, edit, keep_payload):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read() if keep_payload else b""
    with open(path, "wb") as fh:
        fh.write(json.dumps(edit(header)).encode() + b"\n" + payload)


# damage -> (stage, grid file, header edit, keep the payload): a header that is
# no JSON object, a shape that is no list, and a shape of 4 PB with no payload
DAMAGED_GRIDS = {
    "header_list": ("train", "frames/00000_intensity.ptg", lambda h: [1, 2], True),
    "shape_string": ("epie", "frames/00000_intensity.ptg", lambda h: {**h, "shape": "32"},
                     True),
    "shape_impossible": ("epie", "probe.ptg",
                         lambda h: {**h, "shape": [1000000, 1000000, 1000]}, False),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_GRIDS))
def test_damaged_grid_header_is_one_line_error(pipeline, capsys, tmp_path, damage):
    _, data, _ = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    stage, target, edit, keep_payload = DAMAGED_GRIDS[damage]
    _rewrite_grid(str(copy / target), edit, keep_payload)
    args = [stage, "--seed", "1"] + TINY + ["--set", "epie_iters=1"]
    rc = cli.main(args + ["--data", str(copy), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert target in err


def _rewrite_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    with open(path, "w") as fh:
        json.dump(edit(obj), fh)


def _rewrite_first_row(path, edit):
    lines = open(path).read().splitlines()
    lines[1] = edit(lines[1])
    open(path, "w").write("\n".join(lines) + "\n")


def _with_cfg(**changes):
    return lambda m: {**m, "cfg": {**m["cfg"], **changes}}


# case -> (file under the copied run, edit of that file)
MALFORMED = {
    "cfg_unknown_key": ("checkpoint/manifest.json", _rewrite_json, _with_cfg(bogus=1)),
    "cfg_n_c_string": ("checkpoint/manifest.json", _rewrite_json, _with_cfg(n_c="8")),
    "ckpt_manifest_list": ("checkpoint/manifest.json", _rewrite_json, lambda m: [m]),
    "meta_list": ("data/meta.json", _rewrite_json, lambda m: [m]),
    "manifest_row_short": ("data/manifest.csv", _rewrite_first_row,
                           lambda r: r.rsplit(",", 3)[0]),
    "manifest_split_bogus": ("data/manifest.csv", _rewrite_first_row,
                             lambda r: r.rsplit(",", 1)[0] + ",bogus"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_one_line_error(pipeline, capsys, tmp_path, case):
    _, data, run = pipeline
    shutil.copytree(data, tmp_path / "data")
    shutil.copytree(os.path.join(run, "checkpoint"), tmp_path / "checkpoint")
    target, rewrite, edit = MALFORMED[case]
    rewrite(str(tmp_path / target), edit)
    rc = cli.main(["infer", "--ckpt", str(tmp_path / "checkpoint"),
                   "--data", str(tmp_path / "data"), "--out", str(tmp_path / "p"),
                   "--split", "all"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert os.path.basename(target) in err


@pytest.mark.parametrize("where", ["absolute", "parent_dir", "file_symlink", "dir_symlink"])
def test_manifest_path_outside_dataset_is_one_line_error(pipeline, capsys, tmp_path, where):
    # the manifest names a path outside the dataset, or its path inside the
    # dataset is a symbolic link to a file, or into a directory, outside it
    _, data, run = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    outside = tmp_path / "outside.ptg"
    shutil.copy(copy / "frames" / "00000_intensity.ptg", outside)
    if where == "file_symlink":
        os.remove(copy / "frames" / "00000_intensity.ptg")
        os.symlink(outside, copy / "frames" / "00000_intensity.ptg")
    elif where == "dir_symlink":
        shutil.move(copy / "frames", tmp_path / "frames")
        os.symlink(tmp_path / "frames", copy / "frames")
    else:
        path = str(outside) if where == "absolute" else "../outside.ptg"
        _rewrite_first_row(str(copy / "manifest.csv"),
                           lambda r: r.replace("frames/00000_intensity.ptg", path, 1))
    rc = cli.main(["infer", "--ckpt", os.path.join(run, "checkpoint"), "--data", str(copy),
                   "--out", str(tmp_path / "p"), "--split", "all"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "manifest.csv" in err and "outside the dataset" in err


@pytest.mark.parametrize("eta", ["1e30", "1e300"])
def test_diverging_training_is_one_line_error(pipeline, capsys, tmp_path, eta):
    # 1e30 overflows a forward op; 1e300 overflows the first Adam update itself,
    # whose error names the parameter, the step and eta
    _, data, _ = pipeline
    args = ["train", "--data", data, "--seed", "1"] + TINY + ["--set", f"eta={eta}"]
    rc = cli.main(args + ["--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: non-finite") and "\n" not in err
    if eta == "1e300":
        assert "Adam step 1" in err and "eta" in err
    # the whole stderr of the command, numpy warnings included, is that one line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-m", "ptychokit.cli"] + args
                         + ["--out", str(tmp_path / "run2")],
                         env=dict(os.environ, PYTHONPATH=path), timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith("error: non-finite") and run.stderr.count("\n") == 1


def test_unknown_key_is_one_line_error(capsys, tmp_path):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--set", "bogus=1"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_bad_set_syntax(capsys, tmp_path):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--set", "rows"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [(["--set", "bogus=1"], "'bogus'"),
                                         (["--config", "missing.cfg"], "missing.cfg")],
                         ids=["set", "config"])
@pytest.mark.parametrize("stage", ["infer", "spectrum", "gradcheck"])
def test_every_stage_checks_its_config(pipeline, monkeypatch, capsys, tmp_path, stage, flags,
                                       named):
    # with valid inputs otherwise, the bad flag alone ends the stage, before it writes
    _, data, run = pipeline
    # a stage that skipped the check would run this stub, not the whole suite
    monkeypatch.setattr(verify, "run_gradcheck", lambda verbose=False: [("op", 0.1, 1.0, True)])
    monkeypatch.chdir(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    args = {"infer": ["--ckpt", os.path.join(run, "checkpoint"), "--data", data] + out,
            "spectrum": ["--grid", os.path.join(data, "object_phase.ptg")] + out,
            "gradcheck": []}[stage]
    assert cli.main([stage] + args + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not os.path.exists(tmp_path / "out")


def test_failed_allocation_is_one_line_error(capsys, tmp_path):
    # the object grid would take exabytes: numpy refuses it before allocating
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--set", "object_size=1e9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_stitch_without_predictions_is_one_line_error(capsys, tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "predictions.csv").write_text("index,row,col,y,x,split\n")
    assert cli.main(["stitch", "--pred", str(pred), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: no predictions in") and "\n" not in err


@pytest.mark.parametrize("row", ["0,1", "0,1,2,3,x,test", "0,1,2,3,4,bogus", "0,1,2,-5,4,test"])
def test_malformed_predictions_is_one_line_error(capsys, tmp_path, row):
    pred = tmp_path / "pred"
    (pred / "pred").mkdir(parents=True)
    for kind in ("amp", "phase"):
        gridio.write_grid(pred / "pred" / f"00000_{kind}.ptg", np.zeros((32, 32)))
    (pred / "predictions.csv").write_text(f"index,row,col,y,x,split\n{row}\n")
    assert cli.main(["stitch", "--pred", str(pred), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "predictions.csv:2" in err and "\n" not in err


def test_stitch_writes_the_box_on_the_full_canvas(capsys, tmp_path):
    # windows away from (0, 0): the files equal the explicit full-canvas stitch
    pred = tmp_path / "pred"
    (pred / "pred").mkdir(parents=True)
    positions = [(40, 24), (40, 50), (61, 24), (61, 50)]
    rng = np.random.default_rng(5)
    amps = [rng.uniform(0.1, 1.0, (32, 32)) for _ in positions]
    phases = [rng.uniform(-np.pi, np.pi, (32, 32)) for _ in positions]
    rows = []
    for i, ((y, x), amp, phase) in enumerate(zip(positions, amps, phases)):
        gridio.write_grid(pred / "pred" / f"{i:05d}_amp.ptg", amp)
        gridio.write_grid(pred / "pred" / f"{i:05d}_phase.ptg", phase)
        rows.append([i, 0, i, y, x, "test"])
    gridio.write_csv(pred / "predictions.csv", cli.PRED_FIELDS, rows)
    assert cli.main(["stitch", "--pred", str(pred), "--out", str(tmp_path / "s")]) == 0
    assert "canvas (93, 82)" in capsys.readouterr().out
    # the predictions as read back, rounded to float32
    amps = [gridio.read_grid(pred / "pred" / f"{i:05d}_amp.ptg") for i in range(4)]
    phases = [gridio.read_grid(pred / "pred" / f"{i:05d}_phase.ptg") for i in range(4)]
    amp, mask = recon.stitch(amps, positions, (93, 82))
    phase, _ = recon.stitch_phase(phases, positions, (93, 82))
    for name, want in (("stitched_amp", amp), ("stitched_phase", phase), ("coverage", mask)):
        gridio.write_grid(tmp_path / "want.ptg", want)
        written = (tmp_path / "s" / f"{name}.ptg").read_bytes()
        assert written == (tmp_path / "want.ptg").read_bytes(), name


@pytest.fixture(scope="module")
def predicted(pipeline):
    """The pipeline with predictions for all frames under root/pred_all."""
    root, data, run = pipeline
    pred = str(root / "pred_all")
    assert cli.main(["infer", "--ckpt", os.path.join(run, "checkpoint"), "--data", data,
                     "--out", pred, "--split", "all"]) == 0
    return root, data, run, pred


# file kind -> (stage that reads it, the file under the copied run)
READ_FILES = {
    "frame_grid": ("infer", "data/frames/00000_intensity.ptg"),
    "probe_grid": ("infer", "data/probe.ptg"),
    "object_grid": ("evaluate", "data/object_amplitude.ptg"),
    "parameter_grid": ("infer", "checkpoint/params.ptg"),
    "prediction_grid": ("stitch", "pred/pred/00000_amp.ptg"),
    "meta_json": ("infer", "data/meta.json"),
    "checkpoint_manifest_json": ("infer", "checkpoint/manifest.json"),
    "manifest_csv": ("infer", "data/manifest.csv"),
    "predictions_csv": ("stitch", "pred/predictions.csv"),
    "config": ("stitch", "run.cfg"),
}
TINY_CONFIG = "".join(f"{kv.replace('=', ' = ')}\n" for kv in TINY[1::2])
# damage -> the file's bytes made into the damaged file's
DAMAGES = {
    "empty": lambda b: b"",
    "truncated": lambda b: b[:-3],
    "non_utf8_header": lambda b: b"\xff" + b,
    "header_only": lambda b: b.split(b"\n")[0] + b"\n",
    "no_newline": lambda b: b.split(b"\n")[0],
    "unknown_key": lambda b: b + b"bogus = 1\n",
}
# a config file has no header, and an empty one is a valid config (the
# defaults), so it takes the damages that leave it invalid, and an unknown key
CONFIG_DAMAGES = ("truncated", "non_utf8_header", "unknown_key")


def _one_value_short(path):
    header, payload = path.read_bytes().split(b"\n", 1)
    shape = json.loads(header)["shape"]
    path.write_bytes(header.replace(json.dumps(shape).encode(),
                                    json.dumps([shape[0] - 1]).encode())
                     + b"\n" + payload[:-4])


def _n_c_changed(path):
    manifest = json.loads(path.read_text())
    manifest["cfg"]["n_c"] += 1
    path.write_text(json.dumps(manifest))


def _old_layout(path):
    # a checkpoint as written before params.ptg: one grid per parameter under
    # params/, and their names in the manifest
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    params, _, _ = model.load_checkpoint(path.parent)
    os.remove(path)
    os.mkdir(path.parent / "params")
    for name, t in params.named():
        gridio.write_grid(path.parent / "params" / f"{name}.ptg", t.data)
    manifest_path.write_text(json.dumps({**manifest, "param_names": sorted(params.tensors)}))


# (kind, damage) -> the damage done to the file at its path, for damages that
# only one kind of file takes
KIND_DAMAGES = {
    ("parameter_grid", "one_value_short"): _one_value_short,
    ("parameter_grid", "old_layout"): _old_layout,
    ("checkpoint_manifest_json", "n_c_changed"): _n_c_changed,
}
READ_CASES = [(kind, damage) for kind in READ_FILES for damage in DAMAGES
              if (damage in CONFIG_DAMAGES if kind == "config" else damage != "unknown_key")]


@pytest.mark.parametrize("kind,damage", READ_CASES + list(KIND_DAMAGES))
def test_damaged_input_file_is_one_line_error_naming_it(predicted, capsys, tmp_path, kind,
                                                        damage):
    _, data, run, pred = predicted
    shutil.copytree(data, tmp_path / "data")
    shutil.copytree(os.path.join(run, "checkpoint"), tmp_path / "checkpoint")
    shutil.copytree(pred, tmp_path / "pred")
    (tmp_path / "run.cfg").write_text(TINY_CONFIG)
    stage, target = READ_FILES[kind]
    path = tmp_path / target
    if (kind, damage) in KIND_DAMAGES:
        KIND_DAMAGES[kind, damage](path)
    else:
        path.write_bytes(DAMAGES[damage](path.read_bytes()))
    out = ["--out", str(tmp_path / "out")]
    if stage == "stitch":
        args = ["stitch", "--pred", str(tmp_path / "pred"), "--config", str(tmp_path / "run.cfg")]
    else:
        args = [stage, "--ckpt", str(tmp_path / "checkpoint"), "--data", str(tmp_path / "data"),
                "--split", "all"]
    assert cli.main(args + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert target in err and not err.startswith("error: \"")


def test_table_header_without_a_column_is_one_line_error(capsys, tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "predictions.csv").write_text("index,row,col,x,split\n0,1,2,4,test\n")
    assert cli.main(["stitch", "--pred", str(pred), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "predictions.csv:1: header lacks y" in err


def test_simulate_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["--seed", "3", "--set", "rows=4", "--set", "cols=4",
            "--set", "train_rows=3", "--set", "test_rows=1",
            "--set", "object_size=100", "--set", "noise=1"]
    assert cli.main(["simulate", "--out", a] + args) == 0
    assert cli.main(["simulate", "--out", b] + args) == 0
    fa = os.path.join(a, "frames", "00005_intensity.ptg")
    fb = os.path.join(b, "frames", "00005_intensity.ptg")
    assert open(fa, "rb").read() == open(fb, "rb").read()


@pytest.mark.parametrize("stage", ["simulate", "stitch", "spectrum", "gradcheck"])
def test_force_is_refused_by_a_stage_that_checks_no_hash(capsys, tmp_path, stage):
    args = {"simulate": ["--out", str(tmp_path)], "stitch": ["--pred", "p", "--out", "o"],
            "spectrum": ["--grid", "g", "--out", "o"], "gradcheck": []}[stage]
    with pytest.raises(SystemExit) as exc:
        cli.main([stage, *args, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_gradcheck_subcommand_runs(monkeypatch, capsys):
    # criterion 1 runs the suite itself; here the exit status and the summary
    # line for a passing and for a failing result
    for ok, code in ((True, 0), (False, 1)):
        monkeypatch.setattr(verify, "run_gradcheck", lambda verbose=False: [("op", 0.1, 1.0, ok)])
        assert cli.main(["gradcheck"]) == code
        assert capsys.readouterr().out == f"gradcheck: {int(ok)}/1 passed\n"
