"""The typed key=value codec shared by config, scenario and checkpoint files."""

import argparse
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2k import cli
from g2k import data as da
from g2k.config import (VARIANTS, InputError, ModelConfig, TrainConfig,
                        config_items, desk_config, parse_fields,
                        read_key_values)

CONFIGS = (
    [ModelConfig(), TrainConfig()]
    + [desk_config(v) for v in VARIANTS]
    + [da.SyntheticScenario(kind="group_walk", n_peds=4, seed=11,
                            speed_min=0.9, speed_max=1.1, noise_sigma=0.05)]
)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_items_round_trip(cfg):
    cls = type(cfg)
    assert cls(**parse_fields(cls, config_items(cfg))) == cfg
    text = "".join(f"{k} = {v}\n" for k, v in config_items(cfg))
    (kw,) = read_key_values(text, cls)
    assert cls(**kw) == cfg


@pytest.mark.parametrize("key,raw", [
    ("self_loops", "yes"),
    ("self_loops", "True"),
    ("hidden_size", "eight"),
    ("hidden_size", "8.0"),
    ("lambda_reg", "nan"),
    ("tau", "-inf"),
    ("bogus", "1"),
])
def test_parse_fields_rejects(key, raw):
    with pytest.raises(InputError, match=key):
        parse_fields(ModelConfig, [(key, raw)])


def test_reader_routes_keys_and_reports_lines():
    model_kw, train_kw = read_key_values(
        "# desk\nhidden_size = 8  # trailing\n\nlr=0.5\n", ModelConfig, TrainConfig
    )
    assert model_kw == {"hidden_size": 8}
    assert train_kw == {"lr": 0.5}
    with pytest.raises(InputError, match="line 2: expected key = value"):
        read_key_values("lr = 1\nlr 2\n", TrainConfig)
    with pytest.raises(InputError, match="line 1: unknown key"):
        read_key_values("gravity = 9.8\n", ModelConfig, TrainConfig)


# ---------------------------------------------------------------------------
# fuzz: only the typed errors may escape the readers


def _field_lines(*classes):
    names = [f.name for c in classes for f in dataclasses.fields(c)]
    value = st.one_of(st.text(max_size=8), st.integers().map(str),
                      st.floats().map(repr), st.sampled_from(["true", "false"]))
    line = st.one_of(
        st.text(max_size=30),
        st.tuples(st.sampled_from(names), value).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    )
    return st.lists(line, max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_field_lines(ModelConfig, TrainConfig))
def test_fuzz_config_file(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cli.resolve_configs(argparse.Namespace(config=str(path)))
    except InputError:
        pass


@settings(max_examples=150, deadline=None)
@given(text=_field_lines(da.SyntheticScenario))
def test_fuzz_scenario_text(text):
    try:
        da.parse_scenario(text)
    except InputError:
        pass
