"""Config resolution, the experiment runner's file outputs, sparsity-pattern
dumps and the verify-comm command."""

import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from spafl import cli as cli_mod
from spafl import nn, pruning
from spafl.errors import UsageError
from spafl.experiment import (
    MODEL_PRESETS,
    ExperimentConfig,
    build_simulation,
    dump_sparsity_pattern,
    parse_config,
    run_experiment,
)


def write_config(tmp_path, payload) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


SMALL_RUN = dict(
    clients=5, clients_per_round=2, rounds=3, epochs=1,
    synth_classes=3, synth_dim=10, synth_per_class=12, synth_spread=0.3,
    mlp_hidden=[6], batch_size=8, eval_every=1, seed=7,
)


class TestParseConfig:
    def test_empty_file_with_lenet_model_gives_reference_hyperparameters(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        cfg = parse_config(str(p), {"model": "lenet", "dataset": "synthetic"})
        assert (cfg.lr, cfg.epochs, cfg.alpha, cfg.batch_size) == (0.001, 5, 0.002, 64)
        assert (cfg.clients, cfg.clients_per_round, cfg.rounds) == (100, 10, 500)
        assert cfg.dirichlet_beta == 0.2

    def test_cnn7_preset(self):
        cfg = parse_config(None, {"model": "cnn7"})
        assert (cfg.lr, cfg.epochs, cfg.alpha, cfg.batch_size) == (0.01, 5, 0.00015, 16)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, {"model": "mlp", "lr": 0.5, "seed": 3})
        cfg = parse_config(path, {"lr": 0.25})
        assert cfg.lr == 0.25
        assert cfg.seed == 3

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(UsageError, match="K <= N"):
            parse_config(None, {"clients_per_round": 20, "clients": 10})

    def test_unsupported_strategy_named(self):
        with pytest.raises(Exception, match="heterofl"):
            parse_config(None, {"strategy": "heterofl"})

    def test_unknown_key_lists_valid(self, tmp_path):
        path = write_config(tmp_path, {"modle": "mlp"})
        with pytest.raises(UsageError, match="modle"):
            parse_config(path)

    def test_unknown_model(self):
        with pytest.raises(UsageError, match="resnet"):
            parse_config(None, {"model": "resnet"})

    def test_default_is_the_mlp_preset(self):
        assert parse_config() == ExperimentConfig(synth_dim=64)

    # every reference value of the two image presets, spelled out, so a
    # change to a preset or to a default that moves a resolved value fails
    FULL_PRESETS = {
        "lenet": dict(
            lr=0.001, epochs=5, alpha=0.002, batch_size=64, momentum=0.9, lr_decay=1.0,
            rounds=500, clients=100, clients_per_round=10, dirichlet_beta=0.2, synth_dim=784,
        ),
        "cnn7": dict(
            lr=0.01, epochs=5, alpha=0.00015, batch_size=16, momentum=0.9, lr_decay=1.0,
            rounds=500, clients=100, clients_per_round=10, dirichlet_beta=0.1, synth_dim=3072,
        ),
    }

    @pytest.mark.parametrize("model", sorted(FULL_PRESETS))
    def test_preset_resolves_to_full_values(self, model):
        assert parse_config(None, {"model": model}) == ExperimentConfig(model=model, **self.FULL_PRESETS[model])

    @pytest.mark.parametrize("model", sorted(MODEL_PRESETS))
    def test_preset_holds_no_default(self, model):
        defaults = ExperimentConfig()
        same = [k for k, v in MODEL_PRESETS[model].items() if v == getattr(defaults, k)]
        assert not same, f"{model} preset repeats the defaults of {same}"

    def test_idx_requires_paths(self):
        with pytest.raises(UsageError, match="idx_images"):
            parse_config(None, {"dataset": "idx"})


WRONGLY_TYPED = {
    "strategy_int": ({"strategy": 5}, "str"),
    "lr_null": ({"lr": None}, "float"),
    "lr_str": ({"lr": "0.1"}, "float"),
    "rounds_float": ({"rounds": 2.5}, "int"),
    "rounds_bool": ({"rounds": True}, "int"),
    "mlp_hidden_int": ({"mlp_hidden": 64}, "list[int]"),
    "mlp_hidden_float_item": ({"mlp_hidden": [64, 1.5]}, "list[int]"),
    "synth_dim_str": ({"synth_dim": "64"}, "int | None"),
}


@pytest.mark.parametrize("payload,expected", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED.keys())
def test_wrongly_typed_file_value_is_a_usage_error(tmp_path, capsys, payload, expected):
    path = write_config(tmp_path, payload)
    [(key, value)] = payload.items()
    with pytest.raises(UsageError) as info:
        parse_config(path)
    assert f"{key!r} expects {expected}, got {value!r}" in str(info.value)
    assert cli_mod.main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert f"{key!r} expects {expected}" in capsys.readouterr().err


def test_well_typed_file_values_pass(tmp_path):
    # an int where a float is expected, None for an ``X | None`` field
    cfg = parse_config(write_config(tmp_path, {"lr": 1, "synth_dim": None, "mlp_hidden": [4, 3]}))
    assert (cfg.lr, cfg.synth_dim, cfg.mlp_hidden) == (1, None, [4, 3])


def test_every_config_key_has_a_run_flag():
    args = vars(cli_mod.build_parser().parse_args(["run"]))
    missing = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in args]
    assert not missing, f"no spafl run flag for {missing}"


def test_min_per_client_flag():
    args = cli_mod.build_parser().parse_args(["run", "--min-per-client", "5"])
    assert args.min_per_client == 5


def _flag_sample(hint):
    """A command-line string for a field of type ``hint`` and the value it
    must reach ``parse_config`` as."""
    if hint == list[int]:
        return "4,3", [4, 3]
    arms = [a for a in typing.get_args(hint) if a is not type(None)]
    return {int: ("3", 3), float: ("0.25", 0.25), str: ("abc", "abc")}[arms[0] if arms else hint]


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_flag_reaches_parse_config_typed(monkeypatch, field):
    text, value = _flag_sample(typing.get_type_hints(ExperimentConfig)[field.name])
    seen = {}

    def capture(path, overrides):
        seen.update(overrides)
        raise UsageError("captured")

    monkeypatch.setattr(cli_mod, "parse_config", capture)
    assert cli_mod.main(["run", "--" + field.name.replace("_", "-"), text]) == 2
    assert seen == {field.name: value}
    got = seen[field.name]
    assert type(got) is type(value)
    if isinstance(got, list):
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("flag,valid", [("--model", "cnn7, lenet, mlp"), ("--dataset", "synthetic, idx")])
def test_unknown_model_or_dataset_flag_is_a_usage_error(tmp_path, capsys, flag, valid):
    out = tmp_path / "out"
    assert cli_mod.main(["run", flag, "foo", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err
    assert all(name in err for name in valid.split(", "))
    assert not out.exists()


OUT_OF_RANGE = {
    "lr_decay": ("--lr-decay", "-0.5"),
    "synth_per_class": ("--synth-per-class", "0"),
    "eval_every": ("--eval-every", "-1"),
    "dump_masks_every": ("--dump-masks-every", "-2"),
    "min_per_client": ("--min-per-client", "-3"),
}


@pytest.mark.parametrize("key,flag,value", [(k, *fv) for k, fv in OUT_OF_RANGE.items()], ids=OUT_OF_RANGE.keys())
def test_out_of_range_value_is_a_usage_error(tmp_path, capsys, key, flag, value):
    # each was accepted at parse time, then failed mid-run or not at all
    with pytest.raises(UsageError, match=f"{key} must be >= "):
        parse_config(overrides={key: float(value) if key == "lr_decay" else int(value)})
    assert cli_mod.main(["run", flag, value, "--out-dir", str(tmp_path)]) == 2
    assert f"{key} must be >= " in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "fields", [dict(momentum=1.0), dict(clients=3, clients_per_round=5)], ids=["momentum", "k_gt_n"]
)
def test_build_simulation_validates_config(fields):
    # the library path (ExperimentConfig, then build_simulation) skips
    # parse_config, so build_simulation must run the same checks
    with pytest.raises(UsageError):
        build_simulation(ExperimentConfig(**fields))


class TestRunExperiment:
    def test_zero_rounds_headers_only(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL_RUN, "rounds": 0, "out_dir": str(tmp_path)})
        summary = run_experiment(cfg)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("round,mean_acc")
        assert summary["best_mean_accuracy"] is None
        assert json.loads((tmp_path / "summary.json").read_text())["best_mean_accuracy"] is None

    def test_local_only_zero_comm_column(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL_RUN, "strategy": "local_only", "out_dir": str(tmp_path)})
        run_experiment(cfg)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert rows
        assert all(r.split(",")[5] == "0" for r in rows)

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        cfg_a = ExperimentConfig(**{**SMALL_RUN, "out_dir": str(tmp_path / "a")})
        cfg_b = ExperimentConfig(**{**SMALL_RUN, "out_dir": str(tmp_path / "b")})
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_row_count_matches_eval_cadence(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL_RUN, "rounds": 7, "eval_every": 3, "out_dir": str(tmp_path)})
        run_experiment(cfg)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        # evals at rounds 2 and 5 (1-based multiples of 3) plus the final round 6
        assert len(rows) == 1 + 3

    def test_summary_best_is_column_max(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL_RUN, "rounds": 5, "out_dir": str(tmp_path)})
        summary = run_experiment(cfg)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        best = max(float(r.split(",")[1]) for r in rows)
        assert summary["best_mean_accuracy"] == pytest.approx(best)

    def test_mask_dumps_written(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL_RUN, "rounds": 2, "dump_masks_every": 2, "out_dir": str(tmp_path)})
        run_experiment(cfg)
        dumps = sorted(p.name for p in tmp_path.glob("*.pgm"))
        assert dumps == ["mask_c0_l0_r1.pgm", "mask_c0_l1_r1.pgm"]


class TestSparsityDump:
    def build(self):
        cfg = ExperimentConfig(**SMALL_RUN, out_dir="/tmp/spafl-dump")
        return build_simulation(cfg)

    def test_all_active_is_black(self, tmp_path):
        sim = self.build()
        masks = pruning.generate_masks(sim.net, sim.clients[0].params, pruning.init_thresholds(sim.net))
        path = dump_sparsity_pattern(sim.net, sim.clients[0], masks, 0, 0, str(tmp_path))
        lines = open(path).read().splitlines()
        assert lines[0] == "P2"
        w, h = map(int, lines[1].split())
        spec = sim.net.specs[sim.net.prunable[0]]
        assert (w, h) == (spec.n_in, spec.n_out)
        assert lines[2] == "255"
        values = np.array([int(v) for row in lines[3:] for v in row.split()])
        assert np.all(values == 0)

    def test_fully_pruned_is_white(self, tmp_path):
        sim = self.build()
        tau = [np.ones(n) for n in sim.net.threshold_sizes]
        masks = pruning.generate_masks(sim.net, sim.clients[0].params, tau)
        path = dump_sparsity_pattern(sim.net, sim.clients[0], masks, 1, 4, str(tmp_path))
        values = np.array([int(v) for row in open(path).read().splitlines()[3:] for v in row.split()])
        assert np.all(values == 255)
        assert path.endswith("mask_c0_l1_r4.pgm")

    def test_mixed_matches_generated_mask(self, tmp_path):
        sim = self.build()
        rng = np.random.default_rng(3)
        tau = [rng.uniform(0, 0.2, n) for n in sim.net.threshold_sizes]
        masks = pruning.generate_masks(sim.net, sim.clients[0].params, tau)
        path = dump_sparsity_pattern(sim.net, sim.clients[0], masks, 0, 2, str(tmp_path))
        lines = open(path).read().splitlines()
        raster = np.array([[int(v) for v in row.split()] for row in lines[3:]])
        # one raster row per unit, its bit repeated across the n_in fan-in columns
        n_in = sim.net.specs[sim.net.prunable[0]].n_in
        assert np.array_equal(raster, np.repeat(np.where(masks[0] > 0, 0, 255)[:, None], n_in, axis=1))

    def test_non_prunable_layer_rejected(self, tmp_path):
        sim = self.build()
        masks = pruning.generate_masks(sim.net, sim.clients[0].params, pruning.init_thresholds(sim.net))
        with pytest.raises(Exception, match="prunable"):
            dump_sparsity_pattern(sim.net, sim.clients[0], masks, 99, 0, str(tmp_path))


class TestCliMain:
    def test_verify_comm_all_presets(self, capsys):
        assert cli_mod.main(["verify-comm"]) == 0
        out = capsys.readouterr().out
        assert "fmnist-lenet" in out and "0.1856 Gbit" in out
        assert "cifar10-cnn7" in out and "0.4538 Gbit" in out
        assert "cifar100-resnet18" in out and "4.6080 Gbit" in out

    def test_verify_comm_single_preset(self, capsys):
        assert cli_mod.main(["verify-comm", "--preset", "fmnist-lenet"]) == 0
        out = capsys.readouterr().out
        assert out.count("Gbit") == 1
        assert "185600000 bits" in out

    def test_python_dash_m_spafl(self):
        # the package runs as a module, against the checkout's own source
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "spafl", "verify-comm", "--preset", "fmnist-lenet"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0.1856 Gbit" in proc.stdout

    def test_run_command_end_to_end(self, tmp_path, capsys):
        code = cli_mod.main(
            [
                "run",
                "--model", "mlp", "--dataset", "synthetic",
                "--clients", "5", "--clients-per-round", "2", "--rounds", "2",
                "--epochs", "1", "--synth-classes", "3", "--synth-dim", "10",
                "--synth-per-class", "12", "--batch-size", "8",
                "--seed", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert "best_mean_accuracy" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        code = cli_mod.main(["run", "--clients", "3", "--clients-per-round", "9"])
        assert code == 2
        assert "K <= N" in capsys.readouterr().err

    def test_unsupported_strategy_via_cli(self, capsys):
        for name in ("fedpm", "heterofl", "fjord", "fedp3", "fedspa"):
            code = cli_mod.main(["run", "--strategy", name])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown strategy '{name}'; supported strategies: spafl" in err
