import hashlib

import pytest

from ptychokit import config
from ptychokit.config import DATA_KEYS, DEFAULTS, RunConfig
from ptychokit.model import ModelConfig
from ptychokit.train import TrainConfig


def test_defaults_and_set_coercion():
    cfg = RunConfig()
    assert cfg["step"] == 8
    cfg.set("step", "10")
    assert cfg["step"] == 10 and isinstance(cfg["step"], int)
    cfg.set("rows", "1e3")
    assert cfg["rows"] == 1000 and isinstance(cfg["rows"], int)
    for bad in ("4.7", 4.7, "nan", "inf", "abc"):
        with pytest.raises(ValueError, match="'rows'"):
            cfg.set("rows", bad)
    assert cfg["rows"] == 1000
    cfg.set("eta", "5e-4")
    assert cfg["eta"] == pytest.approx(5e-4)
    cfg.set("variant", "no_skip")
    assert cfg["variant"] == "no_skip"
    with pytest.raises(KeyError):
        cfg.set("not_a_key", 1)


def test_float_keys_refuse_non_finite():
    cfg = RunConfig()
    for key in ("read_sigma", "peak_photons", "eta"):
        for bad in ("nan", "inf", "-inf", float("nan"), "abc"):
            with pytest.raises(ValueError, match=f"'{key}'"):
                cfg.set(key, bad)
        assert cfg[key] == DEFAULTS[key]


def test_master_seed_sets_all_seed_keys():
    cfg = RunConfig()
    cfg.set_master_seed(42)
    for k in DEFAULTS:
        if k.endswith("_seed"):
            assert cfg[k] == 42


def config_hash(cfg):
    """The hash over every key, as `data_hash` is over the data keys."""
    return config._digest(cfg.values)


def test_hash_sensitivity():
    a, b = RunConfig(), RunConfig()
    assert config_hash(a) == config_hash(b)
    assert a.data_hash() == b.data_hash()
    b.set("epochs", 99)  # training-only key: full hash moves, data hash does not
    assert config_hash(a) != config_hash(b)
    assert a.data_hash() == b.data_hash()
    b.set("object_seed", 5)
    assert a.data_hash() != b.data_hash()
    assert len(config_hash(a)) == 12


def test_data_keys_exist():
    assert set(DATA_KEYS) <= set(DEFAULTS)


def test_file_roundtrip(tmp_path):
    cfg = RunConfig()
    cfg.set("n_c", 8)
    cfg.set("variant", "deep_fusion")
    path = tmp_path / "run.cfg"
    cfg.save(path)
    back = RunConfig.from_file(path)
    assert back.values == cfg.values


def test_from_file_parses_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nstep = 4  # trailing\n\nrows = 10\n")
    cfg = RunConfig.from_file(path)
    assert cfg["step"] == 4 and cfg["rows"] == 10
    bad = tmp_path / "bad.cfg"
    bad.write_text("step 4\n")
    with pytest.raises(ValueError):
        RunConfig.from_file(bad)


def test_from_file_errors_name_the_file_and_line(tmp_path):
    # an unknown key stays a KeyError and a bad value a ValueError
    path = tmp_path / "c.cfg"
    path.write_text("rows = 10\nbogus = 1\n")
    with pytest.raises(KeyError, match=r"c\.cfg:2: unknown config key 'bogus'"):
        RunConfig.from_file(path)
    path.write_text("# rows\n\nrows = ten\n")
    with pytest.raises(ValueError, match=r"c\.cfg:3: config key 'rows' needs an integer"):
        RunConfig.from_file(path)
    path.write_bytes(b"rows = 10\n\xff\n")
    with pytest.raises(ValueError, match=r"c\.cfg: not UTF-8"):
        RunConfig.from_file(path)


def test_builders():
    cfg = RunConfig()
    assert cfg.model_cfg() == ModelConfig()
    assert cfg.train_cfg() == TrainConfig()
    assert cfg.noise_cfg() is None
    cfg.set("noise", 1)
    assert cfg.noise_cfg()["read_sigma"] is None  # auto
    cfg.set("read_sigma", 0.5)
    assert cfg.noise_cfg()["read_sigma"] == 0.5
    assert cfg.make_probe().shape == (32, 32)
    for key in ("model_seed", "train_seed", "n_c", "epochs", "lam_g"):
        cfg.set(key, 3)
    mcfg, tcfg = cfg.model_cfg(), cfg.train_cfg()
    assert (mcfg.seed, tcfg.seed, mcfg.n_c, tcfg.epochs, tcfg.weights.lam_g) == (3, 3, 3, 3, 3.0)


def test_config_format_is_pinned(tmp_path):
    # config.txt and both hashes travel with datasets and checkpoints; a change
    # to any default, key name or value type moves one of these
    cfg = RunConfig()
    assert (config_hash(cfg), cfg.data_hash()) == ("7519a12e6963", "8c212b82c6ed")
    cfg.save(tmp_path / "config.txt")
    assert hashlib.sha256((tmp_path / "config.txt").read_bytes()).hexdigest() == (
        "40871ea16ab346ccbfacf5871a48a6f0b770f932847657c0ee4a54f373ce2c95")
    cfg.set_master_seed(7)
    assert (config_hash(cfg), cfg.data_hash()) == ("5e6f381625c9", "50ed76ee86c1")
