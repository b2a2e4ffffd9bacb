"""Optimization loop: Adam, triangular-2 cyclic learning rate, gradient
clipping, validation-based model selection, and a per-epoch training record."""

import ctypes
import math
import os
import resource
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad, circphase, losses, model
from .autodiff import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

I_MAX_PERCENTILE = 99.5

# glibc neither trims its heap nor mmaps a block below this many bytes once
# training starts (mallopt(3) M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3).
HEAP_KEEP_BYTES = 256 << 20
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Columns of train_log.csv, one row per epoch. The gradient norm is taken before
# clipping; steps_per_s and faults_per_step cover the epoch's training steps,
# epoch_s the whole epoch with its validation and checkpoint.
TRAIN_LOG_FIELDS = ("epoch", "val_loss", "ring_dev", "grad_norm_mean", "grad_norm_max",
                    "clip_share", "lr_min", "lr_max", "steps_per_s", "epoch_s",
                    "faults_per_step")


@dataclass
class TrainConfig:
    eta: float = 1e-3
    batch_size: int = 32
    epochs: int = 25
    half_cycle_epochs: int = 6
    clip_norm: float = 1.0
    seed: int = 0
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN is rejected too
        if (not 0 < self.eta < math.inf or not 0 < self.clip_norm < math.inf
                or self.epochs < 1 or self.batch_size < 1):
            raise ValueError("need finite eta > 0, finite clip_norm > 0, epochs >= 1, "
                             "batch_size >= 1")


def cyclic_lr(step, steps_per_half_cycle, eta):
    """Triangular-2: oscillates between eta/10 and a per-cycle peak that halves
    its gap to the base each cycle; lr(0) = eta/10."""
    if steps_per_half_cycle <= 0:
        raise ValueError("steps_per_half_cycle must be positive")
    base = eta / 10.0
    cycle = step // (2 * steps_per_half_cycle)
    pos = step % (2 * steps_per_half_cycle)
    tri = 1.0 - abs(pos - steps_per_half_cycle) / steps_per_half_cycle
    peak = base + (eta - base) / (2.0 ** cycle)
    return base + (peak - base) * tri


def clip_grad_norm(grads, max_norm=1.0):
    """Scale all grads in place by max_norm/norm when their global L2 norm exceeds
    max_norm; returns the same arrays and the norm before clipping."""
    total = 0.0
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = np.float32(max_norm / norm)
        for g in grads:
            g *= scale
    return grads, norm


class AdamState:
    """Per-parameter first/second moments plus a shared step counter."""

    def __init__(self, params):
        self.m = {n: np.zeros_like(t.data) for n, t in params.named()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.named()}
        self.t = 0


def adam_step(params, grads, state, lr):
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, g in grads.items():
        t = params.tensors[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        t.data -= (lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)).astype(np.float32)


@dataclass
class TrainResult:
    params: model.ModelParams
    cfg: model.ModelConfig
    best_val: float
    best_epoch: int
    log_rows: list
    epoch_log: list  # one dict per epoch, keyed by TRAIN_LOG_FIELDS

    @property
    def val_history(self):
        return [row["val_loss"] for row in self.epoch_log]


def _stack_batch(frames, patches, idx):
    intensity = np.stack([frames[i].intensity for i in idx])[:, None]
    a = np.stack([patches[i].amplitude for i in idx])[:, None]
    phi = np.stack([patches[i].phase for i in idx])[:, None]
    c, s = circphase.embed(phi)
    return intensity, a, c, s, phi


def _batch_loss(frames, patches, idx, params, cfg, weights):
    intensity, a, c, s, phi = _stack_batch(frames, patches, idx)
    out = model.forward(intensity, params, cfg)
    if cfg.variant == "scalar_phase":
        total, bd = losses.scalar_phase_loss(a, out["amp"], phi, out["phase"])
        ring = 0.0
    else:
        total, bd = losses.total_loss(a, out["amp"], c, out["c_pre"], s, out["s_pre"],
                                      out["c_proj"], out["s_proj"], weights)
        ring = float(np.mean(np.abs(out["c_pre"].data ** 2 + out["s_pre"].data ** 2 - 1.0)))
    return total, bd, ring


def _eval_split(frames, patches, idx, params, cfg, weights, batch_size):
    tot, ring, n = 0.0, 0.0, 0
    for start in range(0, len(idx), batch_size):
        chunk = idx[start:start + batch_size]
        total, _, r = _batch_loss(frames, patches, chunk, params, cfg, weights)
        tot += total.item() * len(chunk)
        ring += r * len(chunk)
        n += len(chunk)
    return tot / max(n, 1), ring / max(n, 1)


def _train_step(frames, patches, batch, params, model_cfg, train_cfg, state, lr, step):
    """One Adam step on a batch; its loss breakdown and the gradient norm before
    clipping. The gradients are taken off the parameters and die with this call,
    so none outlives its step."""
    with ad.Tape() as tape:
        total, bd, _ = _batch_loss(frames, patches, batch, params,
                                   model_cfg, train_cfg.weights)
        if not np.isfinite(total.item()):
            raise FloatingPointError(f"non-finite loss at step {step}")
        ad.backward(tape, total)
    grads = {}
    for name in sorted(params.tensors):
        t = params.tensors[name]
        grads[name], t.grad = t.grad, None
    _, norm = clip_grad_norm(list(grads.values()), train_cfg.clip_norm)
    adam_step(params, grads, state, lr)
    return bd, norm


def _keep_heap_mapped():
    """Make glibc keep freed memory mapped: no heap trim and no mmap'd block
    below HEAP_KEEP_BYTES, so each training step reuses the pages the last one
    freed instead of faulting fresh ones in. The setting is process-wide and
    stays after `train` returns. Does nothing off glibc. A refused threshold
    (older glibc caps the mmap one at 32 MiB on 64-bit) is a warning, not an
    error: results do not depend on it."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
        if mallopt(param, HEAP_KEEP_BYTES) != 1:
            warnings.warn(f"mallopt({param}, {HEAP_KEEP_BYTES}) refused; training "
                          "steps may fault their memory back in", RuntimeWarning)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def compute_i_max(frames, idx=None):
    """99.5th-percentile intensity over the training split, frozen for SADGS."""
    if idx is None:
        idx = range(len(frames))
    pixels = np.concatenate([frames[i].intensity.ravel() for i in idx])
    return float(np.percentile(pixels, I_MAX_PERCENTILE))


def train(frames, patches, model_cfg, train_cfg, ckpt_dir=None, config_hash="",
          log_path=None):
    """Train with per-epoch seeded shuffling and best-validation checkpointing.

    With log_path, writes the per-step loss log there and the per-epoch record
    (TRAIN_LOG_FIELDS) as train_log.csv beside it; the record's times and page
    faults vary from run to run, and no checkpoint file depends on them.
    On glibc, training first sets the allocator to keep freed memory mapped
    (`_keep_heap_mapped`); that setting is process-wide and outlives the call.
    """
    train_idx = [i for i, f in enumerate(frames) if f.split == "train"]
    val_idx = [i for i, f in enumerate(frames) if f.split == "val"]
    if not train_idx:
        raise ValueError("empty training split")
    if not val_idx:
        raise ValueError("empty validation split: model selection needs val frames "
                         "(set val_fraction > 0)")

    _keep_heap_mapped()
    model_cfg.i_max = compute_i_max(frames, train_idx)
    params = model.init_params(model_cfg)
    state = AdamState(params)

    steps_per_epoch = (len(train_idx) + train_cfg.batch_size - 1) // train_cfg.batch_size
    half_cycle = train_cfg.half_cycle_epochs * steps_per_epoch

    log_rows, epoch_log = [], []
    best_val, best_epoch = float("inf"), -1
    best_data = {n: t.data.copy() for n, t in params.named()}
    step = 0
    for epoch in range(train_cfg.epochs):
        t0, faults0 = time.perf_counter(), _minor_faults()
        order = np.array(train_idx)
        np.random.default_rng([train_cfg.seed, epoch]).shuffle(order)
        norms, lrs = [], []
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            lr = cyclic_lr(step, half_cycle, train_cfg.eta)
            bd, norm = _train_step(frames, patches, batch, params, model_cfg, train_cfg,
                                   state, lr, step)
            log_rows.append([step, lr] + bd.to_row())
            norms.append(norm)
            lrs.append(lr)
            step += 1
        steps_s, faults = time.perf_counter() - t0, _minor_faults() - faults0

        val_loss, ring_dev = _eval_split(frames, patches, val_idx, params,
                                         model_cfg, train_cfg.weights,
                                         train_cfg.batch_size)
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_data = {n: t.data.copy() for n, t in params.named()}
            if ckpt_dir is not None:
                model.save_checkpoint(ckpt_dir, params, model_cfg,
                                      seed=train_cfg.seed, epoch=epoch,
                                      val_loss=val_loss, config_hash=config_hash)
        epoch_log.append({
            "epoch": epoch, "val_loss": val_loss, "ring_dev": ring_dev,
            "grad_norm_mean": float(np.mean(norms)), "grad_norm_max": float(max(norms)),
            "clip_share": sum(n > train_cfg.clip_norm for n in norms) / len(norms),
            "lr_min": min(lrs), "lr_max": max(lrs), "steps_per_s": len(norms) / steps_s,
            "epoch_s": time.perf_counter() - t0, "faults_per_step": faults / len(norms)})

    best_params = model.ModelParams(
        tensors={n: Tensor(d, requires_grad=True) for n, d in best_data.items()})
    if log_path is not None:
        _write_csv(log_path, ["step", "lr"] + list(losses.LossBreakdown.FIELDS), log_rows)
        _write_csv(os.path.join(os.path.dirname(os.path.abspath(log_path)), "train_log.csv"),
                   TRAIN_LOG_FIELDS, [[row[k] for k in TRAIN_LOG_FIELDS] for row in epoch_log])
    return TrainResult(params=best_params, cfg=model_cfg, best_val=best_val,
                       best_epoch=best_epoch, log_rows=log_rows, epoch_log=epoch_log)


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.8g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
