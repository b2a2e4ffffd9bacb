import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ptychokit
from ptychokit import autodiff as ad, circphase, dataset, losses, model, physics, train
from ptychokit.autodiff import Tensor


def tiny_data(seed=0, rows=4, cols=4):
    amp, phase = dataset.gen_object(100, 100, seed=seed)
    probe = physics.make_probe()
    plan = dataset.plan_scan(rows=rows, cols=cols, step=8, jitter_max=3, seed=seed)
    frames, patches = dataset.make_dataset(amp, phase, probe, plan)
    dataset.split_rows(frames, rows=rows, train_rows=rows - 1, test_rows=1,
                       val_fraction=0.2, seed=0)
    return frames, patches


def test_cyclic_lr_endpoints_and_peaks():
    eta, half = 1e-3, 100
    assert train.cyclic_lr(0, half, eta) == pytest.approx(eta / 10)
    assert train.cyclic_lr(half, half, eta) == pytest.approx(eta)  # first peak
    assert train.cyclic_lr(2 * half, half, eta) == pytest.approx(eta / 10)
    # second peak: base + (eta - base)/2
    assert train.cyclic_lr(3 * half, half, eta) == pytest.approx(1e-4 + 9e-4 / 2)
    assert train.cyclic_lr(5 * half, half, eta) == pytest.approx(1e-4 + 9e-4 / 4)
    with pytest.raises(ValueError):
        train.cyclic_lr(0, 0, eta)


def test_cyclic_lr_bounds():
    lrs = [train.cyclic_lr(s, 50, 1e-3) for s in range(500)]
    assert min(lrs) >= 1e-4 - 1e-12
    assert max(lrs) <= 1e-3 + 1e-12


def test_clip_grad_norm():
    grads = [np.full((10,), 3.0, np.float32), np.full((10,), 4.0, np.float32)]
    clipped, norm = train.clip_grad_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(250.0))
    total = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in clipped)
    assert np.sqrt(total) == pytest.approx(1.0, rel=1e-5)
    # the input arrays, scaled in place
    assert clipped is grads and all(c is g for c, g in zip(clipped, grads))
    assert np.allclose(grads[0], 3.0 / np.sqrt(250.0))
    assert np.allclose(grads[1], 4.0 / np.sqrt(250.0))
    small = [np.full((4,), 0.1, np.float32)]
    out, norm2 = train.clip_grad_norm(small, max_norm=1.0)
    assert out[0] is small[0] and np.all(small[0] == np.float32(0.1))  # below the threshold
    with pytest.raises(FloatingPointError):
        train.clip_grad_norm([np.array([np.nan], np.float32)])


def test_adam_step_oracle():
    # one step from zero state equals -lr * g / (|g| + eps) regardless of scale
    params = model.ModelParams(tensors={"w": Tensor(np.zeros(3, np.float32),
                                                    requires_grad=True)})
    state = train.AdamState(params)
    g = np.array([0.5, -2.0, 1e-4], np.float32)
    train.adam_step(params, {"w": g}, state, lr=0.1)
    expected = -0.1 * g / (np.abs(g) + train.ADAM_EPS)
    assert np.allclose(params.tensors["w"].data, expected, atol=1e-6)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    params = model.ModelParams(tensors={"w": Tensor(np.full(2, 5.0, np.float32),
                                                    requires_grad=True)})
    state = train.AdamState(params)
    for _ in range(500):
        g = 2.0 * params.tensors["w"].data
        train.adam_step(params, {"w": g}, state, lr=0.05)
    assert np.all(np.abs(params.tensors["w"].data) < 0.05)


def test_compute_i_max_percentile():
    frames, _ = tiny_data(seed=1)
    i_max = train.compute_i_max(frames)
    pixels = np.concatenate([f.intensity.ravel() for f in frames])
    assert i_max == pytest.approx(float(np.percentile(pixels, 99.5)))
    assert i_max < pixels.max()


def test_stack_batch_embeds_phase_like_each_patch():
    frames, patches = tiny_data(seed=2)
    idx = [5, 0, 11]
    intensity, a, c, s, phi = train._stack_batch(frames, patches, idx)
    assert intensity.shape == a.shape == c.shape == s.shape == phi.shape == (3, 1, 32, 32)
    assert c.dtype == s.dtype == np.float32
    per_patch = [circphase.embed(patches[i].phase) for i in idx]
    assert np.array_equal(c, np.stack([cp for cp, _ in per_patch])[:, None])
    assert np.array_equal(s, np.stack([sp for _, sp in per_patch])[:, None])


def test_train_smoke_loss_decreases(tmp_path):
    frames, patches = tiny_data(seed=2)
    mcfg = model.ModelConfig(n_c=4, seed=0)
    tcfg = train.TrainConfig(epochs=3, batch_size=8, seed=0)
    res = train.train(frames, patches, mcfg, tcfg,
                      ckpt_dir=tmp_path / "ckpt", config_hash="h",
                      log_path=tmp_path / "log.csv")
    assert len(res.val_history) == 3
    assert res.best_val == min(res.val_history)
    assert res.best_val < res.val_history[0] or res.best_epoch == 0
    per_epoch = len(res.log_rows) // 3
    first = np.mean([r[-1] for r in res.log_rows[:per_epoch]])
    last = np.mean([r[-1] for r in res.log_rows[-per_epoch:]])
    assert last < first  # mean training loss moved down over 3 epochs
    assert (tmp_path / "ckpt" / "manifest.json").exists()
    assert (tmp_path / "log.csv").exists()
    header = (tmp_path / "log.csv").read_text().splitlines()[0]
    assert header.startswith("step,lr,base,")


def test_train_deterministic():
    frames, patches = tiny_data(seed=3)
    kw = dict(model_cfg=None, train_cfg=train.TrainConfig(epochs=1, batch_size=8, seed=1))
    r1 = train.train(frames, patches, model.ModelConfig(n_c=4, seed=1), kw["train_cfg"])
    r2 = train.train(frames, patches, model.ModelConfig(n_c=4, seed=1), kw["train_cfg"])
    name = sorted(r1.params.tensors)[0]
    assert np.array_equal(r1.params.tensors[name].data, r2.params.tensors[name].data)
    assert r1.val_history == r2.val_history


def test_train_requires_train_split():
    frames, patches = tiny_data(seed=4)
    for f in frames:
        f.split = "test"
    with pytest.raises(ValueError):
        train.train(frames, patches, model.ModelConfig(n_c=4),
                    train.TrainConfig(epochs=1))


def test_train_peak_memory_n32():
    # n_c=32, 68 training frames, one epoch: the traced peak is one step's tape and
    # backward over the parameters, two Adam moments and the best-epoch copy. Blocked
    # im2col columns and gradients freed after each Adam update keep it below 96 MB
    # (about 109 MB with unblocked columns and the last step's gradients kept alive).
    amp, phase = dataset.gen_object(120, 120, seed=0)
    plan = dataset.plan_scan(rows=10, cols=10, step=8, jitter_max=3, seed=0)
    frames, patches = dataset.make_dataset(amp, phase, physics.make_probe(), plan)
    dataset.split_rows(frames, rows=10, train_rows=9, test_rows=1, val_fraction=0.25, seed=0)
    assert sum(f.split == "train" for f in frames) == 68
    tracemalloc.start()
    try:
        train.train(frames, patches, model.ModelConfig(n_c=32, seed=0),
                    train.TrainConfig(epochs=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96e6, peak


def test_train_config_validates():
    for bad in (dict(eta=0.0), dict(eta=float("nan")), dict(eta=float("inf")),
                dict(clip_norm=0.0), dict(clip_norm=float("nan")),
                dict(clip_norm=float("inf")), dict(batch_size=0), dict(epochs=0)):
        with pytest.raises(ValueError):
            train.TrainConfig(**bad)


def test_model_config_and_loss_weights_validate():
    # each refusal names its key; NaN fails every chained comparison
    nan, inf = float("nan"), float("inf")
    for bad in (dict(n_c=0), dict(n_c=-2), dict(alpha=nan), dict(alpha=-1.0),
                dict(alpha=0.0), dict(alpha=inf), dict(i_sat=nan), dict(i_sat=inf),
                dict(g0=nan), dict(g0=inf), dict(g_l=nan), dict(g_h=-inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            model.ModelConfig(**bad)
    for bad in (dict(lam_s=nan), dict(w_b=inf), dict(w_p=-0.1), dict(lam_g=-inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            losses.LossWeights(**bad)


def test_backward_frees_tape_memory():
    # one n_c=8, batch-32 training step: the backward releases each node as it
    # passes, so it needs little beyond what the forward left on the tape
    rng = np.random.default_rng(0)
    cfg = model.ModelConfig(n_c=8, i_max=1.0, seed=0)
    params = model.init_params(cfg)
    intensity = rng.uniform(0.0, 1.0, (32, 1, 32, 32)).astype(np.float32)
    a = Tensor(rng.uniform(0.0, 1.0, (32, 1, 32, 32)))
    c, s = (Tensor(v) for v in circphase.embed(rng.uniform(-np.pi, np.pi, (32, 1, 32, 32))))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            out = model.forward(intensity, params, cfg)
            total, _ = losses.total_loss(a, out["amp"], c, out["c_pre"], s, out["s_pre"],
                                         out["c_proj"], out["s_proj"])
            after_forward = tracemalloc.get_traced_memory()[0]
            ad.backward(tape, total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in params.tensors.values())
    assert peak <= 1.25 * after_forward


_GRAD_HASH = """
import hashlib
import numpy as np
from ptychokit import autodiff as ad, circphase, losses, model
from ptychokit.autodiff import Tensor

rng = np.random.default_rng(0)
cfg = model.ModelConfig(n_c=8, i_max=1.0, seed=0)
params = model.init_params(cfg)
intensity = rng.uniform(0.0, 1.0, (BATCH, 1, 32, 32)).astype(np.float32)
a = Tensor(rng.uniform(0.0, 1.0, (BATCH, 1, 32, 32)))
c, s = (Tensor(v) for v in circphase.embed(rng.uniform(-np.pi, np.pi, (BATCH, 1, 32, 32))))
with ad.Tape() as tape:
    out = model.forward(intensity, params, cfg)
    total, _ = losses.total_loss(a, out["amp"], c, out["c_pre"], s, out["s_pre"],
                                 out["c_proj"], out["s_proj"])
    ad.backward(tape, total)
h = hashlib.sha256()
for name in sorted(params.tensors):
    h.update(params.tensors[name].grad.tobytes())
print(h.hexdigest())
"""


def _run_fresh(script, **env):
    """stdout of script run by a new interpreter that imports this ptychokit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptychokit.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", script], timeout=300, check=True,
                         env=dict(os.environ, PYTHONPATH=path, **env),
                         capture_output=True, text=True)
    return run.stdout.strip()


@pytest.mark.parametrize("batch", [32, 11])
def test_gradient_bitwise_equal_across_blas_threads(batch):
    # 11 is the last, partial batch of each criterion-9 epoch (395 frames)
    script = _GRAD_HASH.replace("BATCH", str(batch))
    digests = {_run_fresh(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
    assert len(digests) == 1


_FAULTS = """
import json
from ptychokit import dataset, model, physics, train

amp, phase = dataset.gen_object(120, 120, seed=0)
plan = dataset.plan_scan(rows=10, cols=10, step=8, jitter_max=3, seed=0)
frames, patches = dataset.make_dataset(amp, phase, physics.make_probe(), plan)
dataset.split_rows(frames, rows=10, train_rows=9, test_rows=1, val_fraction=0.25, seed=0)
res = train.train(frames, patches, model.ModelConfig(n_c=8, seed=0),
                  train.TrainConfig(epochs=3, seed=0))
print(json.dumps([row["faults_per_step"] for row in res.epoch_log]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator setting is glibc-only")
def test_training_steps_do_not_fault_memory_back_in():
    # n_c=8, batch 32, in a new process so no earlier test's allocator state
    # counts: once the first epoch has mapped a step's memory, later steps reuse
    # it (with glibc's default heap trimming, about 3,000 minor faults per step)
    faults = json.loads(_run_fresh(_FAULTS))
    assert len(faults) == 3
    assert max(faults[1:]) < 100, faults


def test_train_log_has_one_row_per_epoch(tmp_path):
    frames, patches = tiny_data(seed=5)
    tcfg = train.TrainConfig(epochs=2, batch_size=8, seed=0, clip_norm=1e-6)
    res = train.train(frames, patches, model.ModelConfig(n_c=4, seed=0), tcfg,
                      log_path=tmp_path / "loss_log.csv")
    lines = (tmp_path / "train_log.csv").read_text().splitlines()
    assert lines[0].split(",") == list(train.TRAIN_LOG_FIELDS)
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    assert [r["epoch"] for r in rows] == [0, 1]
    assert [r["val_loss"] for r in rows] == pytest.approx(res.val_history, rel=1e-7)
    lrs = [r[1] for r in res.log_rows]
    half = len(lrs) // 2
    for row, epoch_lrs in zip(rows, (lrs[:half], lrs[half:])):
        assert row["lr_min"] == pytest.approx(min(epoch_lrs), rel=1e-7)
        assert row["lr_max"] == pytest.approx(max(epoch_lrs), rel=1e-7)
        assert 0 < row["grad_norm_mean"] <= row["grad_norm_max"]
        assert row["clip_share"] == 1.0  # every norm exceeds clip_norm = 1e-6
        assert row["ring_dev"] >= 0 and row["steps_per_s"] > 0 and row["epoch_s"] > 0
        assert row["faults_per_step"] >= 0
