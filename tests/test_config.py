"""Strict config parsing, overrides, hashing, and provenance CSV round trips."""

import json

import pytest

from rollcast.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    provenance,
    read_csv,
    write_csv,
)


def test_defaults_round_trip():
    cfg = RunConfig()
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_unknown_keys_rejected_at_any_level():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"not_a_key": 1})
    with pytest.raises(ConfigError, match="pretrain"):
        config_from_dict({"pretrain": {"learning_rate_typo": 0.1}})
    with pytest.raises(ConfigError, match="regime"):
        config_from_dict({"data": {"regime": {"storminess": 2}}})


def test_invalid_values_surface_as_config_errors():
    for model in (
        {"embed_dim": 10, "num_heads": 4},
        {"embed_dim": 18, "num_heads": 2},  # the ring table needs a multiple of 4
        {"num_heads": 0},
        {"num_blocks": 0},
        {"patch_size": 0},
        {"intervals": [0, 6]},
        {"intervals": [6, 6]},
        {"moe_top_k": 9},
        {"moe_top_k": 0},
        {"moe_alpha": -1},
    ):
        with pytest.raises(ConfigError, match="model"):
            config_from_dict({"model": model})


def test_overrides_apply_and_reject_unknown_paths():
    cfg = RunConfig()
    out = apply_overrides(cfg, ["pretrain.steps=42", "seed=7", "data.regime.storm_rate=0.0"])
    assert out.pretrain.steps == 42
    assert out.seed == 7
    assert out.data.regime.storm_rate == 0.0
    with pytest.raises(ConfigError, match="unknown config"):
        apply_overrides(cfg, ["pretrain.nope=1"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["pretrain.steps"])


def test_config_hash_tracks_content():
    a = RunConfig()
    b = apply_overrides(a, ["seed=1"])
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(RunConfig())


def test_load_config_errors(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_csv_provenance_round_trip(tmp_path):
    cfg = RunConfig()
    prov = provenance(cfg)
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]], prov)
    got_prov, header, rows = read_csv(path)
    assert got_prov == prov
    assert header == ["a", "b"]
    assert rows == [["1", "2"], ["3", "4"]]
    assert "config_hash" in got_prov and "seed" in got_prov


def test_provenance_is_time_independent():
    cfg = RunConfig()
    assert provenance(cfg) == provenance(cfg)
    as_json = json.dumps(provenance(cfg), sort_keys=True)
    assert "time" not in as_json and "date" not in as_json
