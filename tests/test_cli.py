import json
import os

import numpy as np
import pytest

from ptychokit import cli, gridio

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


def test_epie_subcommand(pipeline):
    root, data, _ = pipeline
    out = str(root / "epie")
    assert cli.main(["epie", "--data", data, "--out", out,
                     "--set", "epie_iters=3"]) == 0
    hist = open(os.path.join(out, "error_history.txt")).read().splitlines()
    assert len(hist) == 3


def test_hash_mismatch_refused(pipeline, capsys):
    _, data, _ = pipeline
    rc = cli.main(["train", "--data", data, "--out", "/tmp/nope", "--seed", "2"] + TINY)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mismatch" in err


@pytest.mark.parametrize("bad", ["batch_size=0", "eta=nan", "clip_norm=inf", "rows=4.7"])
def test_bad_value_is_one_line_error(pipeline, capsys, tmp_path, bad):
    _, data, _ = pipeline
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run"), "--seed", "1"]
                  + TINY + ["--set", bad])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_diverging_training_is_one_line_error(pipeline, capsys, tmp_path):
    _, data, _ = pipeline
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run"), "--seed", "1"]
                  + TINY + ["--set", "eta=1e30"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: non-finite") and "\n" not in err


def test_unknown_key_is_one_line_error(capsys, tmp_path):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--set", "bogus=1"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_bad_set_syntax(capsys, tmp_path):
    rc = cli.main(["simulate", "--out", str(tmp_path / "d"), "--set", "rows"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


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


def test_gradcheck_subcommand_runs():
    # covered in depth by the acceptance suite; here only exit status
    assert cli.main(["gradcheck"]) == 0
