"""Dual-gain dual-encoder network with three decoders for amplitude and
circular phase coordinates, plus the ablation variants.

Inside `forward` every activation is (C, H, W, N), the layout `autodiff`'s
conv takes: the input batch is transposed into it once, and each head out of
it once, so callers see N x 1 x H x W. The fusion conv reads the encoders'
features as a tuple of parts, so their concatenation is never built. Each
decoder upsamples twice, each time inside the conv that reads the upsampled
map, `conv2d(..., upsample=True)`, so no upsampled map is kept on the tape:
`b2c1` convolves the upsample of its map together with the skip features (a
tuple of parts), and `b3c1` the upsample of its map. The tail, a 3x3 conv to
one channel of the upsampled 2*n_c-channel map, mixes its 9 taps before
upsampling (at 16x16 for 32x32 frames) when 9 < 2*n_c, and only those 9 maps
are upsampled. Every ReLU is the epilogue of the conv before it,
`conv2d(..., relu=True)`, so the tape keeps no pre-activation maps."""

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad, circphase, gridio
from .autodiff import Tensor

VARIANTS = ("full", "scalar_phase", "single_gain", "no_skip", "no_outnorm",
            "deep_fusion", "three_gain")


@dataclass
class ModelConfig:
    n_c: int = 32
    i_sat: float = 4095.0
    alpha: float = 0.85
    g0: float = 0.0
    g_l: float = 0.001
    g_h: float = 4.0
    i_max: float = 1.0  # 99.5th-percentile train-set intensity, frozen before training
    variant: str = "full"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'")
        # chained comparisons are False for NaN, so NaN is rejected too
        for need, ok in (("n_c >= 1", self.n_c >= 1), ("i_max > 0", self.i_max > 0),
                         ("finite i_sat > 0", 0 < self.i_sat < math.inf),
                         ("finite alpha > 0", 0 < self.alpha < math.inf),
                         # gain_factor's 2.0 ** g overflows from g = 1024 on; the
                         # mirrored bound keeps 2.0 ** g0 (0.0 from -1075 down) > 0
                         ("-1024 < g0 < 1024", -1024 < self.g0 < 1024),
                         ("finite g_l < g_h < 1024", -math.inf < self.g_l < self.g_h < 1024)):
            if not ok:
                raise ValueError(f"need {need}")


@dataclass
class ModelParams:
    tensors: dict

    def named(self):
        return self.tensors.items()


def gain_factor(cfg, g):
    """The factor of the gain branch with exponent g; one that is not finite and
    > 0 is refused here, where `i_max` is known."""
    gain = cfg.i_sat * cfg.alpha / (2.0 ** cfg.g0 * cfg.i_max) * 2.0 ** g
    if not 0 < gain < math.inf:
        raise ValueError(f"gain factor {gain} for g0={cfg.g0} and a branch exponent of {g} "
                         f"(g_l={cfg.g_l}, g_h={cfg.g_h}): need finite and > 0")
    return gain


def _gain_branch(intensity, cfg, g):
    scaled = np.minimum(gain_factor(cfg, g) * intensity, cfg.i_sat)
    return (scaled / cfg.i_sat).astype(np.float32)


def sadgs(intensity, cfg):
    """Saturation-aware dual-gain scaling; returns (I_l, I_h) normalized to [0,1]."""
    intensity = np.asarray(intensity, dtype=np.float64)
    if np.any(intensity < 0):
        raise ValueError("negative intensity")
    return _gain_branch(intensity, cfg, cfg.g_l), _gain_branch(intensity, cfg, cfg.g_h)


def _gain_exponents(cfg):
    if cfg.variant == "single_gain":
        return [cfg.g_h]
    if cfg.variant == "three_gain":
        return [cfg.g_l, (cfg.g_l + cfg.g_h) / 2.0, cfg.g_h]
    return [cfg.g_l, cfg.g_h]


def _decoder_names(cfg):
    if cfg.variant == "scalar_phase":
        return ["amp", "phase"]
    return ["amp", "cos", "sin"]


def layer_defs(cfg):
    """Named conv layers: name -> (c_out, c_in, k, has_bias)."""
    n = cfg.n_c
    nb = len(_gain_exponents(cfg))
    defs = {}
    for i in range(nb):
        br = f"enc{i}"
        defs[f"{br}_c1"] = (n, 1, 5, True)
        defs[f"{br}_c2"] = (2 * n, n, 5, True)
        defs[f"{br}_c3"] = (4 * n, 2 * n, 5, True)
    if cfg.variant == "deep_fusion":
        defs["fusion_a"] = (8 * n, 8 * n, 3, True)
        defs["fusion_b"] = (4 * n, 8 * n, 3, True)
    else:
        defs["fusion"] = (4 * n, 4 * n * nb, 1, False)
    has_skip = cfg.variant != "no_skip"
    if has_skip:
        defs["skip_c1"] = (n, 1, 3, True)
        defs["skip_c2"] = (2 * n, n, 3, True)
    b2_in = 6 * n if has_skip else 4 * n
    for d in _decoder_names(cfg):
        defs[f"dec_{d}_b1c1"] = (4 * n, 4 * n, 3, True)
        defs[f"dec_{d}_b1c2"] = (4 * n, 4 * n, 3, True)
        defs[f"dec_{d}_b2c1"] = (2 * n, b2_in, 3, True)
        defs[f"dec_{d}_b2c2"] = (2 * n, 2 * n, 3, True)
        defs[f"dec_{d}_b3c1"] = (2 * n, 2 * n, 3, True)
        defs[f"dec_{d}_b3c2"] = (2 * n, 2 * n, 3, True)
        defs[f"dec_{d}_out"] = (1, 2 * n, 3, True)
    return defs


def param_shapes(cfg):
    """Each parameter's name and shape, layer by layer in `layer_defs` order and
    the weight before the bias: the order `init_params` makes them in and a
    checkpoint stores them in."""
    shapes = {}
    for name, (cout, cin, k, has_bias) in layer_defs(cfg).items():
        shapes[name + ".w"] = (cout, cin, k, k)
        if has_bias:
            shapes[name + ".b"] = (cout,)
    return shapes


def init_params(cfg):
    """Fan-in uniform weights in [-sqrt(6/fan_in), +sqrt(6/fan_in)], zero biases."""
    rng = np.random.default_rng(cfg.seed)
    tensors = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            data = np.zeros(shape, np.float32)
        else:
            bound = np.sqrt(6.0 / math.prod(shape[1:]))
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(tensors=tensors)


def _conv(params, name, x, stride=1, padding=1, upsample=False, relu=False):
    t = params.tensors
    return ad.conv2d(x, t[name + ".w"], t.get(name + ".b"), stride=stride, padding=padding,
                     upsample=upsample, relu=relu)


def _encode(params, branch, x):
    x = _conv(params, f"{branch}_c1", x, stride=2, padding=2, relu=True)
    x = _conv(params, f"{branch}_c2", x, stride=2, padding=2, relu=True)
    x = _conv(params, f"{branch}_c3", x, stride=2, padding=2, relu=True)
    return x


def _decode(params, d, z, skip):
    h = _conv(params, f"dec_{d}_b1c1", z, relu=True)
    h = _conv(params, f"dec_{d}_b1c2", h, relu=True)
    h = _conv(params, f"dec_{d}_b2c1", h if skip is None else (h, skip), upsample=True,
              relu=True)
    h = _conv(params, f"dec_{d}_b2c2", h, relu=True)
    h = _conv(params, f"dec_{d}_b3c1", h, upsample=True, relu=True)
    h = _conv(params, f"dec_{d}_b3c2", h, relu=True)
    # conv of the upsampled map, (1, H, W, N) -> N x 1 x H x W
    return ad.transpose(_conv(params, f"dec_{d}_out", h, upsample=True), (3, 0, 1, 2))


def _prep_input(intensity):
    """Raw intensity as a (1, H, W, N) float64 batch."""
    arr = np.asarray(intensity, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, None]
    elif arr.ndim == 3:
        arr = arr[:, None]
    elif arr.ndim != 4:
        raise ValueError(f"bad input shape {arr.shape}")
    return arr.transpose(1, 2, 3, 0)


def forward(intensity, params, cfg):
    """Run the network on raw intensity; returns a dict of N x 1 x H x W tensors.

    Full variant: amp, c_pre, s_pre, c_proj, s_proj.
    scalar_phase variant: amp, phase (phase = pi * tanh, trained on raw angles).
    """
    raw = _prep_input(intensity)
    branches = [Tensor(_gain_branch(raw, cfg, g)) for g in _gain_exponents(cfg)]

    z = tuple(_encode(params, f"enc{i}", b) for i, b in enumerate(branches))
    if cfg.variant == "deep_fusion":
        z = _conv(params, "fusion_a", z, relu=True)
        z = _conv(params, "fusion_b", z)
    else:
        z = _conv(params, "fusion", z, padding=0)

    skip = None
    if cfg.variant != "no_skip":
        raw_t = Tensor((raw / max(cfg.i_max, 1e-12)).astype(np.float32))
        skip = _conv(params, "skip_c1", raw_t, stride=2, padding=1, relu=True)
        skip = _conv(params, "skip_c2", skip, stride=2, padding=1)

    amp = ad.sigmoid(_decode(params, "amp", z, skip))
    if cfg.variant == "scalar_phase":
        phase = ad.scale(ad.tanh(_decode(params, "phase", z, skip)), np.pi)
        return {"amp": amp, "phase": phase}

    c_pre = ad.tanh(_decode(params, "cos", z, skip))
    s_pre = ad.tanh(_decode(params, "sin", z, skip))
    if cfg.variant == "no_outnorm":
        c_proj, s_proj = c_pre, s_pre
    else:
        c_proj, s_proj = circphase.unit_project(c_pre, s_pre)
    return {"amp": amp, "c_pre": c_pre, "s_pre": s_pre,
            "c_proj": c_proj, "s_proj": s_proj}


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(ckpt_dir, params, cfg, seed=0, epoch=0, val_loss=float("nan"),
                    config_hash=""):
    """Write `manifest.json` and `params.ptg`, every parameter back to back in
    `param_shapes(cfg)` order, each from its own buffer."""
    shapes = param_shapes(cfg)
    if {name: t.shape for name, t in params.named()} != shapes:
        raise ValueError(f"parameters do not match the {cfg.variant} layers at n_c={cfg.n_c}")
    os.makedirs(ckpt_dir, exist_ok=True)
    gridio.write_parts(os.path.join(ckpt_dir, "params.ptg"),
                       [params.tensors[name].data for name in shapes])
    # JSON has no NaN: a non-finite val_loss is written as null
    manifest = {"cfg": asdict(cfg), "seed": seed, "epoch": epoch,
                "val_loss": val_loss if math.isfinite(val_loss) else None,
                "config_hash": config_hash}
    gridio.write_json(os.path.join(ckpt_dir, "manifest.json"), manifest)


MANIFEST_TYPES = {"cfg": dict, "seed": int, "epoch": int, "val_loss": (float, type(None)),
                  "config_hash": str}


def load_checkpoint(ckpt_dir):
    """The parameters, model config and manifest of a checkpoint. Each
    parameter's name and shape come from the manifest's cfg, and `params.ptg`
    must hold exactly their values."""
    params_path = os.path.join(ckpt_dir, "params.ptg")
    if os.path.isdir(os.path.join(ckpt_dir, "params")) and not os.path.exists(params_path):
        raise ValueError(f"{params_path}: missing; a params/ directory beside it is the old "
                         "checkpoint layout, which is not read")
    path = os.path.join(ckpt_dir, "manifest.json")
    manifest = gridio.read_json(path, MANIFEST_TYPES, required=("cfg",))
    if manifest.get("val_loss") is None:
        manifest["val_loss"] = float("nan")
    types = {f.name: f.type for f in fields(ModelConfig)}
    cfg = ModelConfig(**gridio.check_fields(manifest["cfg"], types, types, f"{path}: cfg"))
    shapes = param_shapes(cfg)
    arrays = gridio.read_parts(params_path, shapes.values(), f"the cfg in {path}")
    return (ModelParams(tensors={name: Tensor(arr, requires_grad=True)
                                 for name, arr in zip(shapes, arrays)}),
            cfg, manifest)
