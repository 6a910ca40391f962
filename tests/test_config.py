"""Configuration record: defaults, validation, file loading."""

import json
from dataclasses import fields

import numpy as np
import pytest

from jrpnet.config import CONFIG_SCHEMA_VERSION, STAGE_FIELDS, PipelineConfig, load_config
from jrpnet.errors import FormatError, InputError, ParseError


def test_default_values():
    cfg = PipelineConfig()
    assert cfg.to_dict() == {
        "window_s": 5.0,
        "overlap": 0.2,
        "target_rr": 0.1,
        "norm": "L1",
        "l_min": 3,
        "v_min": 3,
        "binarize_rho": 0.5,
        "n_null": 20,
        "lambda_points": 20,
        "lambda_span": 1e-3,
        "k_folds": 5,
        "seed": 0,
        "tau_max": None,
        "m_max": 10,
    }
    assert CONFIG_SCHEMA_VERSION == 4


def test_every_field_belongs_to_exactly_one_stage():
    assert list(STAGE_FIELDS) == ["embed-params", "analyze", "features", "evaluate", "train"]
    listed = [name for own in STAGE_FIELDS.values() for name in own]
    assert sorted(listed) == sorted(f.name for f in fields(PipelineConfig))


def test_dict_roundtrip_and_unknown_keys():
    cfg = PipelineConfig(window_s=2.5, norm="L2", tau_max=7)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(InputError, match="unknown config keys.*windowsize"):
        PipelineConfig.from_dict({"windowsize": 5})


def test_replace_checks_the_merged_record():
    cfg = PipelineConfig()
    assert cfg.replace(seed=9).seed == 9
    assert cfg.replace(seed=9).window_s == cfg.window_s
    with pytest.raises(InputError, match="overlap"):
        cfg.replace(overlap=1.0)


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("window_s", 0.0, "window_s"),
        ("window_s", float("nan"), "window_s"),
        ("window_s", float("inf"), "window_s"),
        ("overlap", -0.1, "overlap"),
        ("target_rr", 1.0, "target_rr"),
        ("norm", "L3", "norm"),
        ("l_min", 1, "l_min"),
        ("v_min", 0, "v_min"),
        ("binarize_rho", 0.0, "binarize_rho"),
        ("n_null", 0, "n_null"),
        ("lambda_points", 1, "lambda_points"),
        ("lambda_span", 1.5, "lambda_span"),
        ("k_folds", 1, "k_folds"),
        ("seed", -1, "seed must be >= 0"),
        ("tau_max", 0, "tau_max"),
        ("m_max", 0, "m_max"),
        # every value has its default's type, and a bool is no number
        ("window_s", "5", "window_s must be a number"),
        ("overlap", None, "overlap must be a number"),
        ("l_min", 3.0, "l_min must be an integer"),
        ("k_folds", 2.5, "k_folds must be an integer"),
        ("n_null", True, "n_null must be an integer"),
        ("lambda_span", False, "lambda_span must be a number"),
        ("norm", 1, "norm must be a string"),
        ("tau_max", 8.0, "tau_max must be an integer or null"),
    ],
)
def test_field_validation(field, value, needle):
    with pytest.raises(InputError, match=needle):
        PipelineConfig(**{field: value})


def test_numbers_of_any_numeric_type_are_accepted():
    cfg = PipelineConfig(window_s=4, seed=np.int64(3), overlap=np.float64(0.5), tau_max=None)
    assert (cfg.window_s, cfg.seed, cfg.overlap) == (4, 3, 0.5)


def test_load_config_precedence(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"window_s": 2.0, "seed": 4}))

    from_file = load_config(path)
    assert from_file.window_s == 2.0
    assert from_file.seed == 4
    assert from_file.overlap == 0.2  # untouched fields keep their defaults

    overridden = load_config(path, window_s=1.5, seed=None)
    assert overridden.window_s == 1.5  # explicit override beats the file
    assert overridden.seed == 4  # None overrides are ignored

    assert load_config(None, k_folds=3).k_folds == 3
    assert load_config(None) == PipelineConfig()


def test_load_config_file_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(FormatError, match="JSON object"):
        load_config(array)
