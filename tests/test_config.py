import pytest

from ptychokit.config import DATA_KEYS, DEFAULTS, RunConfig


def test_defaults_and_set_coercion():
    cfg = RunConfig()
    assert cfg["step"] == 8
    cfg.set("step", "10")
    assert cfg["step"] == 10 and isinstance(cfg["step"], int)
    cfg.set("rows", "1e3")
    assert cfg["rows"] == 1000 and isinstance(cfg["rows"], int)
    for bad in ("4.7", 4.7, "nan", "inf"):
        with pytest.raises(ValueError):
            cfg.set("rows", bad)
    assert cfg["rows"] == 1000
    cfg.set("eta", "5e-4")
    assert cfg["eta"] == pytest.approx(5e-4)
    cfg.set("variant", "no_skip")
    assert cfg["variant"] == "no_skip"
    with pytest.raises(KeyError):
        cfg.set("not_a_key", 1)


def test_master_seed_sets_all_seed_keys():
    cfg = RunConfig()
    cfg.set_master_seed(42)
    for k in DEFAULTS:
        if k.endswith("_seed"):
            assert cfg[k] == 42


def test_hash_sensitivity():
    a, b = RunConfig(), RunConfig()
    assert a.config_hash() == b.config_hash()
    assert a.data_hash() == b.data_hash()
    b.set("epochs", 99)  # training-only key: full hash moves, data hash does not
    assert a.config_hash() != b.config_hash()
    assert a.data_hash() == b.data_hash()
    b.set("object_seed", 5)
    assert a.data_hash() != b.data_hash()
    assert len(a.config_hash()) == 12


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


def test_builders():
    cfg = RunConfig()
    assert cfg.model_cfg().n_c == 32
    assert cfg.train_cfg().weights.w_p == 1.3
    assert cfg.noise_cfg() is None
    cfg.set("noise", 1)
    assert cfg.noise_cfg().read_sigma is None  # auto
    cfg.set("read_sigma", 0.5)
    assert cfg.noise_cfg().read_sigma == 0.5
    assert cfg.make_probe().grid.shape == (32, 32)
