import json

import numpy as np
import pytest

from ptychokit import model


def cfg(**kw):
    kw.setdefault("n_c", 4)
    kw.setdefault("i_max", 1.0)
    return model.ModelConfig(**kw)


def expected_param_count(n, variant="full"):
    """Independent tally of weights + biases from the architecture description."""
    branches = {"single_gain": 1, "three_gain": 3}.get(variant, 2)
    total = 0
    # encoders: 1->n, n->2n, 2n->4n, all 5x5 with bias
    for cin, cout in ((1, n), (n, 2 * n), (2 * n, 4 * n)):
        total += branches * (cout * cin * 25 + cout)
    if variant == "deep_fusion":
        total += 8 * n * 8 * n * 9 + 8 * n
        total += 4 * n * 8 * n * 9 + 4 * n
    else:
        total += 4 * n * (4 * n * branches) * 1  # bias-free 1x1
    if variant != "no_skip":
        total += n * 1 * 9 + n
        total += 2 * n * n * 9 + 2 * n
    decoders = 2 if variant == "scalar_phase" else 3
    b2_in = 6 * n if variant != "no_skip" else 4 * n
    per_dec = (4 * n * 4 * n * 9 + 4 * n) * 2 \
        + (2 * n * b2_in * 9 + 2 * n) + (2 * n * 2 * n * 9 + 2 * n) \
        + (2 * n * 2 * n * 9 + 2 * n) * 2 \
        + (1 * 2 * n * 9 + 1)
    return total + decoders * per_dec


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_param_count_matches_independent_tally(variant):
    c = cfg(variant=variant)
    params = model.init_params(c)
    assert sum(t.size for t in params.tensors.values()) == expected_param_count(4, variant)


def test_config_validation():
    with pytest.raises(ValueError):
        model.ModelConfig(variant="nope")
    with pytest.raises(ValueError):
        model.ModelConfig(g_l=4.0, g_h=0.001)
    with pytest.raises(ValueError):
        model.ModelConfig(i_max=0.0)


def test_gain_factor_formula():
    c = cfg(i_sat=4095.0, alpha=0.85, g0=0.0, i_max=100.0)
    assert model.gain_factor(c, 0.0) == pytest.approx(4095.0 * 0.85 / 100.0)
    assert model.gain_factor(c, 1.0) == pytest.approx(2 * 4095.0 * 0.85 / 100.0)


def test_sadgs_clipping_and_monotonicity():
    c = cfg(i_max=100.0)
    x = np.linspace(0, 200, 64).reshape(8, 8)
    lo, hi = model.sadgs(x, c)
    for branch in (lo, hi):
        assert branch.max() <= 1.0 + 1e-6
        assert branch.min() >= 0.0
        flat = branch.ravel()[np.argsort(x.ravel())]
        assert np.all(np.diff(flat) >= -1e-7)
    # high gain saturates earlier, so it is >= low gain everywhere
    assert np.all(hi >= lo - 1e-7)
    with pytest.raises(ValueError):
        model.sadgs(-np.ones((4, 4)), c)


def test_sadgs_constructed_clip_example():
    # a pixel at exactly I_max: unclipped at g_l, clipped at g_h
    c = cfg(i_sat=4095.0, alpha=0.85, g0=0.0, g_l=0.001, g_h=4.0, i_max=50.0)
    x = np.full((4, 4), 50.0)
    lo, hi = model.sadgs(x, c)
    pre_lo = model.gain_factor(c, c.g_l) * 50.0
    pre_hi = model.gain_factor(c, c.g_h) * 50.0
    assert pre_lo < c.i_sat < pre_hi
    assert np.allclose(lo, pre_lo / c.i_sat, atol=1e-6)
    assert np.allclose(hi, 1.0, atol=1e-7)


def test_forward_output_shapes_and_ranges():
    c = cfg(seed=1)
    params = model.init_params(c)
    x = np.random.default_rng(0).uniform(0, 2, (2, 32, 32))
    out = model.forward(x, params, c)
    for key in ("amp", "c_pre", "s_pre", "c_proj", "s_proj"):
        assert out[key].data.shape == (2, 1, 32, 32)
    assert np.all((out["amp"].data > 0) & (out["amp"].data < 1))
    assert np.all(np.abs(out["c_pre"].data) <= 1.0)
    ring = out["c_proj"].data ** 2 + out["s_proj"].data ** 2
    # projection eps keeps magnitudes at or just under 1
    assert np.all(ring <= 1.0 + 1e-6)
    assert np.median(np.abs(ring - 1.0)) < 1e-4


def test_forward_accepts_2d_input():
    c = cfg()
    params = model.init_params(c)
    out = model.forward(np.ones((32, 32)), params, c)
    assert out["amp"].data.shape == (1, 1, 32, 32)
    with pytest.raises(ValueError):
        model.forward(np.ones((2, 2, 32, 32, 1)), params, c)


def test_scalar_phase_variant_outputs():
    c = cfg(variant="scalar_phase")
    params = model.init_params(c)
    out = model.forward(np.ones((32, 32)), params, c)
    assert set(out) == {"amp", "phase"}
    assert np.all(np.abs(out["phase"].data) <= np.pi)


def test_no_outnorm_skips_projection():
    c = cfg(variant="no_outnorm", seed=2)
    params = model.init_params(c)
    out = model.forward(np.random.default_rng(1).uniform(0, 1, (32, 32)), params, c)
    assert out["c_proj"] is out["c_pre"]


def test_variant_forward_smoke():
    x = np.random.default_rng(2).uniform(0, 1, (32, 32))
    for variant in model.VARIANTS:
        c = cfg(variant=variant)
        out = model.forward(x, model.init_params(c), c)
        assert out["amp"].data.shape == (1, 1, 32, 32)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_forward_heads_are_n_by_1_by_h_by_w(variant):
    c = cfg(variant=variant)
    x = np.random.default_rng(3).uniform(0, 1, (3, 32, 32))
    out = model.forward(x, model.init_params(c), c)
    for key, head in out.items():
        assert head.data.shape == (3, 1, 32, 32), key
        assert head.data.flags.c_contiguous, key


def test_init_deterministic_in_seed():
    p1 = model.init_params(cfg(seed=5))
    p2 = model.init_params(cfg(seed=5))
    p3 = model.init_params(cfg(seed=6))
    name = sorted(n for n in p1.tensors if n.endswith(".w"))[0]
    assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)
    assert not np.array_equal(p1.tensors[name].data, p3.tensors[name].data)


def test_checkpoint_roundtrip(tmp_path):
    c = cfg(seed=3)
    params = model.init_params(c)
    model.save_checkpoint(tmp_path, params, c, seed=3, epoch=4, val_loss=0.5,
                          config_hash="deadbeef")
    p2, c2, manifest = model.load_checkpoint(tmp_path)
    assert manifest["config_hash"] == "deadbeef"
    assert manifest["epoch"] == 4
    assert c2 == c
    for name, t in params.named():
        assert np.array_equal(t.data, p2.tensors[name].data)


def test_checkpoint_manifest_is_strict_json(tmp_path):
    c = cfg(seed=3)
    model.save_checkpoint(tmp_path, model.init_params(c), c)  # val_loss defaults to NaN

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    text = open(tmp_path / "manifest.json").read()
    assert json.loads(text, parse_constant=reject)["val_loss"] is None
    _, _, manifest = model.load_checkpoint(tmp_path)
    assert np.isnan(manifest["val_loss"])
