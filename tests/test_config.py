import json

import pytest

from pfdl.config import (CONFIG_KEYS, benchmark_config, default_config,
                         load_config, parse_config)
from pfdl.errors import ConfigError


def test_empty_object_gives_full_defaults():
    cfg = default_config()
    fed = cfg.federation
    assert fed.num_clients == 8
    assert fed.active_fraction == 0.4
    assert fed.rounds_per_task == 180
    assert fed.local_epochs == 20
    assert fed.batch_size == 32
    assert fed.lr == 1e-3
    assert fed.weight_decay == 1e-3
    assert fed.lam == 0.5
    assert fed.alpha == 1.0
    assert fed.max_pool_size == 8
    assert fed.mode == "pfeddil"
    assert fed.seed == 0
    assert fed.km_include_self is False
    assert cfg.data.num_classes == 5
    assert cfg.data.input_dim == 16
    assert cfg.data.rotation_degrees == (0.0, 60.0, 120.0, 180.0)
    assert cfg.hidden_dims == (64, 32)


def test_roundtrip_is_fixed_point():
    cfg = parse_config({"mode": "sharing", "seed": 9, "lambda": 0.25,
                        "data": {"num_classes": 3, "seed": 4},
                        "arch": {"hidden_dims": [10, 5]},
                        "negatives": {"permute_fraction": 0.2}})
    again = parse_config(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_benchmark_preset_shortens_schedule():
    cfg = benchmark_config()
    assert cfg.federation.rounds_per_task == 80
    assert cfg.data.samples_per_class == 250
    over = benchmark_config(mode="fedavg", seed=5, data={"samples_per_class": 50})
    assert over.federation.mode == "fedavg"
    assert over.federation.seed == 5
    assert over.data.samples_per_class == 50
    assert over.federation.rounds_per_task == 80


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config({"learning_rate": 0.1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="sigma"):
        parse_config({"data": {"sigma": 1.0}})


def test_lambda_bounds_named():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({"lambda": 1.5})
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({"lambda": -0.1})


def test_assorted_bounds():
    for bad, field in [({"clients": 0}, "clients"),
                       ({"active_fraction": 0.0}, "active_fraction"),
                       ({"active_fraction": 1.2}, "active_fraction"),
                       ({"rounds_per_task": 0}, "rounds_per_task"),
                       ({"lr": 0.0}, "lr"),
                       ({"weight_decay": -1e-9}, "weight_decay"),
                       ({"alpha": 0}, "alpha"),
                       ({"max_pool_size": 0}, "max_pool_size"),
                       ({"seed": -1}, "seed"),
                       ({"mode": "central"}, "mode"),
                       ({"data": {"num_classes": 1}}, "num_classes"),
                       ({"data": {"stream_mode": "sorted"}}, "stream_mode"),
                       ({"data": {"rotation_degrees": []}}, "rotation_degrees"),
                       ({"arch": {"hidden_dims": [0]}}, "hidden_dims"),
                       ({"negatives": {"permute_fraction": 2}}, "permute_fraction")]:
        with pytest.raises(ConfigError, match=field):
            parse_config(bad)


def test_type_errors_are_config_errors():
    with pytest.raises(ConfigError, match="clients"):
        parse_config({"clients": 2.5})
    with pytest.raises(ConfigError, match="clients"):
        parse_config({"clients": True})  # bool is not an integer here
    with pytest.raises(ConfigError, match="km_include_self"):
        parse_config({"km_include_self": "yes"})
    with pytest.raises(ConfigError, match="top level"):
        parse_config([1, 2])


def test_load_config_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "mode": "pfeddil",\n  oops\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(bad)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 3, "rounds_per_task": 7}))
    cfg = load_config(path)
    assert cfg.federation.seed == 3
    assert cfg.federation.rounds_per_task == 7


# ------------------------------------------------------------- the key table

# the manifest echoes to_dict() without sort_keys, so key order is pinned too
DEFAULT_JSON = (
    '{"mode": "pfeddil", "seed": 0, "clients": 8, "active_fraction": 0.4, '
    '"rounds_per_task": 180, "local_epochs": 20, "batch_size": 32, "lr": 0.001, '
    '"weight_decay": 0.001, "lambda": 0.5, "alpha": 1.0, "max_pool_size": 8, '
    '"km_include_self": false, "data": {"num_classes": 5, "input_dim": 16, '
    '"samples_per_class": 250, "class_separation": 8.0, '
    '"rotation_degrees": [0.0, 60.0, 120.0, 180.0], "domain_noise_sigma": 0.3, '
    '"stream_mode": "synchronized", "seed": null}, "arch": {"hidden_dims": [64, 32]}, '
    '"negatives": {"noise_sigma_scale": 1.5, "permute_fraction": 0.5}}')

# every key set to a non-default value, in an order unlike the table's
EVERY_KEY = {
    "data": {"seed": 4, "stream_mode": "shuffled", "num_classes": 3, "input_dim": 8,
             "samples_per_class": 40, "class_separation": 5,
             "rotation_degrees": [0, 90, 45.5], "domain_noise_sigma": 0},
    "negatives": {"permute_fraction": 0.2, "noise_sigma_scale": 2},
    "arch": {"hidden_dims": [10, 5]},
    "km_include_self": True, "max_pool_size": 4, "alpha": 2, "lambda": 0.25,
    "weight_decay": 0, "lr": 0.01, "batch_size": 16, "local_epochs": 3,
    "rounds_per_task": 7, "active_fraction": 0.6, "clients": 5, "seed": 9,
    "mode": "sharing"}
EVERY_KEY_JSON = (
    '{"mode": "sharing", "seed": 9, "clients": 5, "active_fraction": 0.6, '
    '"rounds_per_task": 7, "local_epochs": 3, "batch_size": 16, "lr": 0.01, '
    '"weight_decay": 0.0, "lambda": 0.25, "alpha": 2.0, "max_pool_size": 4, '
    '"km_include_self": true, "data": {"num_classes": 3, "input_dim": 8, '
    '"samples_per_class": 40, "class_separation": 5.0, '
    '"rotation_degrees": [0.0, 90.0, 45.5], "domain_noise_sigma": 0.0, '
    '"stream_mode": "shuffled", "seed": 4}, "arch": {"hidden_dims": [10, 5]}, '
    '"negatives": {"noise_sigma_scale": 2.0, "permute_fraction": 0.2}}')


def test_default_to_dict_is_pinned():
    assert json.dumps(default_config().to_dict()) == DEFAULT_JSON


def test_every_key_to_dict_is_pinned():
    cfg = parse_config(EVERY_KEY)
    assert json.dumps(cfg.to_dict()) == EVERY_KEY_JSON
    assert parse_config(cfg.to_dict()) == cfg


# one invalid value per table row ("section.key" for nested keys), with
# the exact message
BAD_VALUES = {
    "mode": ("central", "mode: must be one of pfeddil, fedavg, source_only, "
                        "disjoint, sharing; got 'central'"),
    "seed": (-1, "seed: must be at least 0, got -1"),
    "clients": (0, "clients: must be at least 1, got 0"),
    "active_fraction": (0.0, "active_fraction: must be greater than 0, got 0"),
    "rounds_per_task": (0, "rounds_per_task: must be at least 1, got 0"),
    "local_epochs": (0, "local_epochs: must be at least 1, got 0"),
    "batch_size": (0, "batch_size: must be at least 1, got 0"),
    "lr": (0.0, "lr: must be greater than 0, got 0"),
    "weight_decay": (-1e-9, "weight_decay: must be at least 0, got -1e-09"),
    "lambda": (1.5, "lambda: must be at most 1, got 1.5"),
    "alpha": (0, "alpha: must be greater than 0, got 0"),
    "max_pool_size": (0, "max_pool_size: must be at least 1, got 0"),
    "km_include_self": ("yes", "km_include_self: expected true or false, got 'yes'"),
    "data.num_classes": (1, "num_classes: must be at least 2, got 1"),
    "data.input_dim": (0, "input_dim: must be at least 1, got 0"),
    "data.samples_per_class": (4, "samples_per_class: must be at least 5, got 4"),
    "data.class_separation": (0, "class_separation: must be greater than 0, got 0"),
    "data.rotation_degrees": ([], "rotation_degrees: expected a non-empty list of numbers"),
    "data.domain_noise_sigma": (-0.1, "domain_noise_sigma: must be at least 0, got -0.1"),
    "data.stream_mode": ("sorted", "stream_mode: must be one of synchronized, shuffled; "
                                   "got 'sorted'"),
    "data.seed": (-1, "data.seed: expected null or a non-negative integer, got -1"),
    "arch.hidden_dims": ([0], "hidden_dims: expected a non-empty list of positive integers"),
    "negatives.noise_sigma_scale": (0, "noise_sigma_scale: must be greater than 0, got 0"),
    "negatives.permute_fraction": (2, "permute_fraction: must be at most 1, got 2"),
}


def doc_with(path: str, value) -> dict:
    section, _, name = path.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def test_bad_values_cover_every_row():
    assert list(BAD_VALUES) == [f"{k.section}.{k.name}" if k.section else k.name
                                for k in CONFIG_KEYS]


@pytest.mark.parametrize("path", list(BAD_VALUES))
def test_single_bad_key_message(path):
    value, message = BAD_VALUES[path]
    with pytest.raises(ConfigError) as err:
        parse_config(doc_with(path, value))
    assert str(err.value) == message


@pytest.mark.parametrize("doc, message", [
    ('{"lr": NaN}', "lr: expected a finite number, got nan"),
    ('{"lr": Infinity}', "lr: expected a finite number, got inf"),
    ('{"active_fraction": NaN}', "active_fraction: expected a finite number, got nan"),
    ('{"lambda": NaN}', "lambda: expected a finite number, got nan"),
    ('{"negatives": {"permute_fraction": NaN}}',
     "permute_fraction: expected a finite number, got nan"),
    ('{"data": {"domain_noise_sigma": Infinity}}',
     "domain_noise_sigma: expected a finite number, got inf"),
    ('{"data": {"rotation_degrees": [0, NaN]}}',
     "rotation_degrees: expected a finite number, got nan"),
    ('{"data": {"rotation_degrees": [-Infinity]}}',
     "rotation_degrees: expected a finite number, got -inf"),
    ('{"alpha": 1' + "0" * 400 + "}", "alpha: expected a finite number, got inf"),
], ids=["lr_nan", "lr_inf", "active_fraction_nan", "lambda_nan", "permute_fraction_nan",
        "noise_sigma_inf", "degrees_nan", "degrees_minus_inf", "alpha_huge_int"])
def test_non_finite_numbers_are_rejected(doc, message):
    with pytest.raises(ConfigError) as err:
        parse_config(json.loads(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("path", ["seed", "data.seed"])
def test_seeds_fit_the_dataset_header(path):
    # dataset files store the base seed as a signed 64-bit integer
    label = "data.seed" if path == "data.seed" else "seed"
    assert parse_config(doc_with(path, 2**63 - 1))
    with pytest.raises(ConfigError) as err:
        parse_config(doc_with(path, 2**63))
    assert str(err.value) == (f"{label}: must be at most 9223372036854775807, "
                              f"got 9223372036854775808")


@pytest.mark.parametrize("doc, message", [
    ({"data": 5}, "data: expected an object"),
    ({"arch": []}, "arch: expected an object"),
    ({"negatives": None}, "negatives: expected an object"),
    ({"x": 1, "data": {}}, "unknown config key(s): x"),
    ({"data": {"y": 1, "seed": 2}}, "unknown data key(s): y"),
    ({"arch": {"z": 1}}, "unknown arch key(s): z"),
    ({"negatives": {"q": 1, "p": 2}}, "unknown negatives key(s): p, q"),
    ({"data": {"rotation_degrees": [0, True]}},
     "rotation_degrees: expected a non-empty list of numbers"),
    ({"arch": {"hidden_dims": [1.5]}},
     "hidden_dims: expected a non-empty list of positive integers"),
    ({"data": {"seed": True}}, "data.seed: expected null or a non-negative integer, got True"),
    ({"lr": "x"}, "lr: expected a number, got 'x'"),
    ({"clients": 2.5}, "clients: expected an integer, got 2.5"),
])
def test_section_and_type_messages(doc, message):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message
