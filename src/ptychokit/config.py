"""Flat run configuration: defaults for every stage, file/flag overrides, hashing."""

import hashlib
import json
import math

from . import losses, model, physics, train
from .dataset import NoiseConfig

DEFAULTS = {
    # object + scan
    "object_size": 520,
    "object_seed": 0,
    "rows": 61,
    "cols": 61,
    "step": 8,
    "jitter_max": 3,
    "scan_seed": 0,
    # probe
    "probe_size": 32,
    "probe_radius": 13.0,
    "probe_sigma": 10.0,
    "probe_curvature": 0.02,
    # noise (read_sigma < 0 means auto: 1% of dataset max)
    "noise": 0,
    "peak_photons": 1e4,
    "read_sigma": -1.0,
    "noise_seed": 0,
    # splits
    "train_rows": 49,
    "test_rows": 12,
    "val_fraction": 0.05,
    "split_seed": 0,
    # model
    "n_c": 32,
    "i_sat": 4095.0,
    "alpha": 0.85,
    "g0": 0.0,
    "g_l": 0.001,
    "g_h": 4.0,
    "variant": "full",
    "model_seed": 0,
    # training
    "eta": 1e-3,
    "batch_size": 32,
    "epochs": 25,
    "half_cycle_epochs": 6,
    "clip_norm": 1.0,
    "train_seed": 0,
    # loss weights
    "w_b": 1.0,
    "w_a": 1.0,
    "w_p": 1.3,
    "w_c": 0.1,
    "lam_circ": 0.6,
    "lam_g": 0.12,
    "lam_s": 0.1,
    # stitching
    "stitch_weight_floor": 1e-6,
    # iterative reference solver
    "epie_iters": 300,
    "epie_beta": 0.9,
    "epie_seed": 0,
}

SEED_KEYS = [k for k in DEFAULTS if k.endswith("_seed")]

# keys that determine the dataset contents; their hash travels with the data
DATA_KEYS = ("object_size", "object_seed", "rows", "cols", "step", "jitter_max",
             "scan_seed", "probe_size", "probe_radius", "probe_sigma",
             "probe_curvature", "noise", "peak_photons", "read_sigma",
             "noise_seed", "train_rows", "test_rows", "val_fraction", "split_seed")


class RunConfig:
    """Flat key-value config; unknown keys are errors."""

    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        if values:
            for k, v in values.items():
                self.set(k, v)

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
        self.values[key] = value

    def __getitem__(self, key):
        return self.values[key]

    def set_master_seed(self, seed):
        for k in SEED_KEYS:
            self.values[k] = int(seed)

    def config_hash(self):
        payload = json.dumps(self.values, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def data_hash(self):
        """Hash over only the keys that define the dataset."""
        sub = {k: self.values[k] for k in DATA_KEYS}
        payload = json.dumps(sub, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    @classmethod
    def from_file(cls, path):
        cfg = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                cfg.set(key, value)
        return cfg

    def save(self, path):
        with open(path, "w") as fh:
            for k in sorted(self.values):
                fh.write(f"{k} = {self.values[k]}\n")

    # -- module config builders -------------------------------------------

    def model_cfg(self):
        v = self.values
        return model.ModelConfig(n_c=v["n_c"], i_sat=v["i_sat"], alpha=v["alpha"],
                                 g0=v["g0"], g_l=v["g_l"], g_h=v["g_h"],
                                 variant=v["variant"], seed=v["model_seed"])

    def loss_weights(self):
        v = self.values
        return losses.LossWeights(w_b=v["w_b"], w_a=v["w_a"], w_p=v["w_p"],
                                  w_c=v["w_c"], lam_circ=v["lam_circ"],
                                  lam_g=v["lam_g"], lam_s=v["lam_s"])

    def train_cfg(self):
        v = self.values
        return train.TrainConfig(eta=v["eta"], batch_size=v["batch_size"],
                                 epochs=v["epochs"],
                                 half_cycle_epochs=v["half_cycle_epochs"],
                                 clip_norm=v["clip_norm"], seed=v["train_seed"],
                                 weights=self.loss_weights())

    def noise_cfg(self):
        v = self.values
        if not v["noise"]:
            return None
        read_sigma = None if v["read_sigma"] < 0 else v["read_sigma"]
        return NoiseConfig(peak_photons=v["peak_photons"], read_sigma=read_sigma,
                           seed=v["noise_seed"])

    def make_probe(self):
        v = self.values
        return physics.make_probe(size=v["probe_size"], radius=v["probe_radius"],
                                  sigma=v["probe_sigma"], curvature=v["probe_curvature"])
