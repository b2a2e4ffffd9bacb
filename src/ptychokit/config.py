"""Flat run configuration: defaults for every stage, file/flag overrides, hashing.

The model, training and loss-weight keys and defaults are the fields of
`ModelConfig`, `TrainConfig` and `LossWeights`; the other keys are listed here."""

import dataclasses
import hashlib
import json
import math

from . import dataset, gridio, losses, model, physics, recon, train

# the keys of ModelConfig, TrainConfig and LossWeights are their field names,
# except for these two seeds; i_max is computed from the training frames, and
# weights is built from the LossWeights keys
RENAMED = {(model.ModelConfig, "seed"): "model_seed", (train.TrainConfig, "seed"): "train_seed"}
FIELD_KEYS = {RENAMED.get((cls, f.name), f.name): (cls, f.name)
              for cls in (model.ModelConfig, train.TrainConfig, losses.LossWeights)
              for f in dataclasses.fields(cls) if f.name not in ("i_max", "weights")}

DEFAULTS = {
    # object + scan
    "object_size": dataset.DEFAULT_OBJECT_SIZE,
    "object_seed": 0,
    "rows": dataset.DEFAULT_ROWS,
    "cols": dataset.DEFAULT_COLS,
    "step": dataset.DEFAULT_STEP,
    "jitter_max": dataset.DEFAULT_JITTER,
    "scan_seed": 0,
    # probe
    "probe_size": physics.PROBE_SIZE,
    "probe_radius": physics.PROBE_RADIUS,
    "probe_sigma": physics.PROBE_SIGMA,
    "probe_curvature": physics.PROBE_CURVATURE,
    # noise (read_sigma < 0 means auto: 1% of dataset max)
    "noise": 0,
    "peak_photons": physics.NOISE_PEAK_PHOTONS,
    "read_sigma": -1.0,
    "noise_seed": 0,
    # splits
    "train_rows": 49,
    "test_rows": 12,
    "val_fraction": 0.05,
    "split_seed": 0,
    # model, training and loss weights: the dataclass defaults
    **{key: getattr(cls, name) for key, (cls, name) in FIELD_KEYS.items()},
    # stitching
    "stitch_weight_floor": recon.WEIGHT_FLOOR,
    # iterative reference solver
    "epie_iters": 300,
    "epie_beta": 0.9,
    "epie_seed": 0,
}

SEED_KEYS = [k for k in DEFAULTS if k.endswith("_seed")]

# key -> (its range as an error states it, the test of a value), checked by `set`
RANGES = {**{k: (f"{k} >= 0", lambda v: v >= 0) for k in SEED_KEYS + ["stitch_weight_floor"]},
          "noise": ("noise 0 or 1", lambda v: v in (0, 1)),
          "epie_iters": ("epie_iters >= 1", lambda v: v >= 1),
          "epie_beta": ("0 < epie_beta <= 1", lambda v: 0 < v <= 1)}

# keys that determine the dataset contents; their hash travels with the data
DATA_KEYS = ("object_size", "object_seed", "rows", "cols", "step", "jitter_max",
             "scan_seed", "probe_size", "probe_radius", "probe_sigma",
             "probe_curvature", "noise", "peak_photons", "read_sigma",
             "noise_seed", "train_rows", "test_rows", "val_fraction", "split_seed")


def _digest(values):
    """12 hex digits of the SHA-256 of `values` as key-sorted JSON."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:12]


class RunConfig:
    """Flat key-value config; unknown keys are errors."""

    def __init__(self):
        self.values = dict(DEFAULTS)

    def set(self, key, value):
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key '{key}'")
        default = DEFAULTS[key]
        if isinstance(default, str):
            value = str(value)
        else:
            try:
                number = float(value)  # accepts "10" and "1e3"
            except ValueError:
                number = math.nan
            if isinstance(default, int) and not number.is_integer():
                raise ValueError(f"config key '{key}' needs an integer, got '{value}'")
            if not math.isfinite(number):
                raise ValueError(f"config key '{key}' needs a finite number, got '{value}'")
            value = int(number) if isinstance(default, int) else number
        if key in RANGES and not RANGES[key][1](value):
            raise ValueError(f"need {RANGES[key][0]}, got {value}")
        self.values[key] = value

    def __getitem__(self, key):
        return self.values[key]

    def set_master_seed(self, seed):
        if seed < 0:
            raise ValueError(f"need seed >= 0, got {seed}")
        for k in SEED_KEYS:
            self.values[k] = int(seed)

    def data_hash(self):
        """Hash over only the keys that define the dataset."""
        return _digest({k: self.values[k] for k in DATA_KEYS})

    @classmethod
    def from_file(cls, path):
        """A config of the defaults and the UTF-8 file's `key = value` lines; a bad
        line is one error of `set`'s class naming the path and line."""
        cfg = cls()
        for lineno, line in enumerate(gridio.read_text(path).splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                cfg.set(key, value)
            except (KeyError, ValueError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc.args[0]}") from None
        return cfg

    def save(self, path):
        with open(path, "w") as fh:
            for k in sorted(self.values):
                fh.write(f"{k} = {self.values[k]}\n")

    # -- module config builders -------------------------------------------

    def _build(self, cls, **extra):
        """`cls` from the values of its FIELD_KEYS, plus `extra` fields."""
        return cls(**{name: self.values[key] for key, (owner, name) in FIELD_KEYS.items()
                      if owner is cls}, **extra)

    def model_cfg(self):
        return self._build(model.ModelConfig)

    def train_cfg(self):
        return self._build(train.TrainConfig, weights=self._build(losses.LossWeights))

    def noise_cfg(self):
        """`make_dataset`'s noise keywords, or None without noise."""
        v = self.values
        if not v["noise"]:
            return None
        return {"peak_photons": v["peak_photons"], "seed": v["noise_seed"],
                "read_sigma": None if v["read_sigma"] < 0 else v["read_sigma"]}

    def make_probe(self):
        v = self.values
        return physics.make_probe(size=v["probe_size"], radius=v["probe_radius"],
                                  sigma=v["probe_sigma"], curvature=v["probe_curvature"])
