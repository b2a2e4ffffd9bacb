import os
import subprocess
import sys

import numpy as np
import pytest

import ptychokit
from ptychokit import dataset, model, physics, train
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
    small = [np.full((4,), 0.1, np.float32)]
    out, norm2 = train.clip_grad_norm(small, max_norm=1.0)
    assert out[0] is small[0]  # untouched below the threshold
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


def test_train_config_validates():
    for bad in (dict(eta=0.0), dict(eta=float("nan")), dict(eta=float("inf")),
                dict(clip_norm=0.0), dict(clip_norm=float("nan")),
                dict(clip_norm=float("inf")), dict(batch_size=0), dict(epochs=0)):
        with pytest.raises(ValueError):
            train.TrainConfig(**bad)


_GRAD_HASH = """
import hashlib
import numpy as np
from ptychokit import autodiff as ad, circphase, losses, model
from ptychokit.autodiff import Tensor

rng = np.random.default_rng(0)
cfg = model.ModelConfig(n_c=8, i_max=1.0, seed=0)
params = model.init_params(cfg)
intensity = rng.uniform(0.0, 1.0, (32, 1, 32, 32)).astype(np.float32)
a = Tensor(rng.uniform(0.0, 1.0, (32, 1, 32, 32)))
c, s = (Tensor(v) for v in circphase.embed(rng.uniform(-np.pi, np.pi, (32, 1, 32, 32))))
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


def test_gradient_bitwise_equal_across_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptychokit.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _GRAD_HASH], env=env, timeout=300,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1
