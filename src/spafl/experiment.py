"""Experiment runner: config resolution with per-model presets, simulation
assembly, the round loop, and artifact emission (metrics CSV, summary JSON,
sparsity-pattern PGM dumps).

All randomness derives from one master seed, so a finished run is bit-exactly
reproducible: same seed, same bytes on disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from . import pruning
from .accounting import CostLedger, threshold_count
from .data import Dataset, client_split, dirichlet_partition, load_idx, synth_dataset
from .errors import ConfigurationError, UsageError
from .federation import (
    Channel,
    ClientState,
    ServerState,
    Simulation,
)
from .nn import Network, NetworkParams, build_cnn7, build_lenet, build_mlp, init_params
from .strategies import parse_strategy, run_strategy_round, snapshot_view


@dataclass
class ExperimentConfig:
    # data
    dataset: str = "synthetic"  # "synthetic" | "idx"
    synth_classes: int = 10
    synth_dim: int | None = None  # default derived from the model preset
    synth_per_class: int = 200
    synth_spread: float = 0.12
    idx_images: str | None = None
    idx_labels: str | None = None
    # model
    model: str = "mlp"  # "lenet" | "cnn7" | "mlp"
    mlp_hidden: list[int] = field(default_factory=lambda: [256, 64])
    n_classes: int | None = None  # default: dataset's class count
    # protocol
    strategy: str = "spafl"
    clients: int = 20
    clients_per_round: int = 5
    rounds: int = 60
    epochs: int = 3
    # optimization
    lr: float = 0.05
    lr_decay: float = 1.0
    momentum: float = 0.9
    alpha: float = 0.0007
    batch_size: int = 8
    # partitioning
    dirichlet_beta: float = 0.1
    test_fraction: float = 0.2
    min_per_client: int = 2
    # run control
    seed: int = 0
    eval_every: int = 1
    dump_masks_every: int = 0
    out_dir: str = "runs"
    workers: int = 1


# per-model presets: only the values that differ from the ExperimentConfig
# defaults. "lenet" and "cnn7" carry the reference image-classification
# settings; the defaults are the desk-scale "mlp" ones, so "mlp" sets only its
# input width
MODEL_PRESETS: dict[str, dict] = {
    "lenet": dict(
        lr=0.001, epochs=5, alpha=0.002, batch_size=64,
        rounds=500, clients=100, clients_per_round=10, dirichlet_beta=0.2,
        synth_dim=784,
    ),
    "cnn7": dict(
        lr=0.01, epochs=5, alpha=0.00015, batch_size=16,
        rounds=500, clients=100, clients_per_round=10,
        synth_dim=3072,
    ),
    "mlp": dict(synth_dim=64),
}

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)  # its keys are the valid keys


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's type: an int passes for a float,
    a bool for no number, None only for an ``X | None`` field, and a
    ``list[X]`` must hold only X."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve an experiment config: model preset defaults, then the JSON
    file's keys, then explicit overrides (CLI flags). Unknown keys, file
    values of the wrong type and out-of-range values raise a usage error
    naming the valid choices."""
    file_cfg: dict = {}
    if path is not None:
        with open(path) as f:
            text = f.read().strip()
        if text:
            file_cfg = json.loads(text)
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a single JSON object")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    for source, name in ((file_cfg, "config file"), (overrides, "flags")):
        unknown = source.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise UsageError(
                f"unknown {name} key(s) {sorted(unknown)}; valid keys: {sorted(_FIELD_TYPES)}"
            )
    for key, value in file_cfg.items():
        hint = _FIELD_TYPES[key]
        if not _fits(value, hint):
            expected = hint.__name__ if type(hint) is type else hint  # int, list[int], int | None
            raise UsageError(f"config file key {key!r} expects {expected}, got {value!r}")

    merged: dict = {}
    model = overrides.get("model", file_cfg.get("model", ExperimentConfig.model))
    if model not in MODEL_PRESETS:
        raise UsageError(f"unknown model {model!r}; valid models: {sorted(MODEL_PRESETS)}")
    merged.update(MODEL_PRESETS[model])
    merged["model"] = model
    merged.update(file_cfg)
    merged.update(overrides)

    cfg = ExperimentConfig(**merged)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    try:
        parse_strategy(cfg.strategy)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from None
    if cfg.dataset not in ("synthetic", "idx"):
        raise UsageError(f"unknown dataset {cfg.dataset!r}; valid: synthetic, idx")
    if cfg.dataset == "idx" and (cfg.idx_images is None or cfg.idx_labels is None):
        raise UsageError("idx dataset needs idx_images and idx_labels paths")
    if not 1 <= cfg.clients_per_round <= cfg.clients:
        raise UsageError(
            f"K <= N required: clients_per_round={cfg.clients_per_round}, clients={cfg.clients}"
        )
    if cfg.rounds < 0:
        raise UsageError("rounds must be >= 0")
    if cfg.epochs < 1:
        raise UsageError("epochs must be >= 1")
    if cfg.lr < 0:
        raise UsageError("lr must be >= 0")
    if cfg.lr_decay < 0:
        raise UsageError("lr_decay must be >= 0")
    if not 0.0 <= cfg.alpha <= 1.0:
        raise UsageError("alpha must lie in [0, 1]")
    if not 0.0 <= cfg.momentum < 1.0:
        raise UsageError("momentum must lie in [0, 1)")
    if cfg.batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if not 0.0 < cfg.test_fraction < 1.0:
        raise UsageError("test_fraction must lie in (0, 1)")
    if cfg.dirichlet_beta <= 0:
        raise UsageError("dirichlet_beta must be > 0")
    if cfg.workers < 1:
        raise UsageError("workers must be >= 1")
    if cfg.synth_per_class < 1:
        raise UsageError("synth_per_class must be >= 1")
    for name in ("eval_every", "dump_masks_every", "min_per_client"):
        if getattr(cfg, name) < 0:
            raise UsageError(f"{name} must be >= 0")


def _seeds(master: int) -> dict[str, np.random.Generator]:
    ss = np.random.SeedSequence(master)
    names = ("partition", "split", "init", "sampling")
    return {name: np.random.default_rng(child) for name, child in zip(names, ss.spawn(len(names)))}


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "idx":
        return load_idx(cfg.idx_images, cfg.idx_labels)
    dim = cfg.synth_dim if cfg.synth_dim is not None else MODEL_PRESETS[cfg.model]["synth_dim"]
    return synth_dataset(cfg.synth_classes, dim, cfg.synth_per_class, cfg.synth_spread, cfg.seed)


def build_network(cfg: ExperimentConfig, dataset: Dataset) -> Network:
    n_classes = cfg.n_classes if cfg.n_classes is not None else dataset.n_classes
    feat = int(np.prod(dataset.samples.shape[1:]))
    if cfg.model == "lenet":
        net = build_lenet(n_classes=n_classes)
    elif cfg.model == "cnn7":
        net = build_cnn7(n_classes=n_classes)
    else:
        net = build_mlp(feat, list(cfg.mlp_hidden), n_classes)
    expect = int(np.prod(net.input_shape))
    if feat != expect:
        raise ConfigurationError(
            f"dataset features ({feat}) do not fit model {cfg.model!r} input {net.input_shape}"
        )
    return net


def build_simulation(cfg: ExperimentConfig) -> Simulation:
    """Validate the config, then assemble dataset, partition, identically
    initialized clients and the server. The partition and the initial model
    depend only on the seed (not the strategy), so strategies compare on
    identical footing."""
    _validate(cfg)
    rngs = _seeds(cfg.seed)
    dataset = build_dataset(cfg)
    net = build_network(cfg, dataset)
    partition = dirichlet_partition(
        dataset.labels, cfg.clients, cfg.dirichlet_beta,
        seed=int(rngs["partition"].integers(2**32)),
        min_per_client=cfg.min_per_client,
    )
    partition = client_split(
        partition, dataset.labels, cfg.test_fraction,
        seed=int(rngs["split"].integers(2**32)),
    )
    init = init_params(net, rngs["init"])
    # one contiguous block holds every client's parameters (row 0) and
    # momentum (row 1), another its thresholds; a client's vectors are rows
    state = np.zeros((2, len(partition.clients), init.n_scalars))
    state[0] = init.flat
    taus = np.zeros((len(partition.clients), threshold_count(net)))  # every threshold starts at 0
    clients = [
        ClientState(
            client_id=k,
            params=NetworkParams.from_flat(state[0, k], init.layout),
            velocity=NetworkParams.from_flat(state[1, k], init.layout),
            tau=taus[k],
            train_idx=entry.train,
            test_idx=entry.test,
        )
        for k, entry in enumerate(partition.clients)
    ]
    server = ServerState(
        tau_current=pruning.init_thresholds(net),
        tau_previous=pruning.init_thresholds(net),
        rng=rngs["sampling"],
        global_params=init,
    )
    return Simulation(
        net=net,
        dataset=dataset,
        clients=clients,
        server=server,
        config=cfg,
        channel=Channel(),
        ledger=CostLedger(),
    )


def dump_sparsity_pattern(
    net: Network,
    client: ClientState,
    masks: list[np.ndarray],
    layer: int,
    round_index: int,
    out_dir: str,
) -> str:
    """Write one prunable layer's mask, from the client's ``masks`` (one
    per prunable layer), as an ASCII portable graymap.

    Raster rows are the layer's output units: an active unit's row is 0
    (black), a pruned one's is 255 (white), mirroring the mask exactly.
    """
    if not 0 <= layer < len(net.prunable):
        raise ConfigurationError(
            f"layer {layer} is not prunable; prunable layers: 0..{len(net.prunable) - 1}"
        )
    mask = masks[layer]
    n_in = net.specs[net.prunable[layer]].n_in
    path = os.path.join(out_dir, f"mask_c{client.client_id}_l{layer}_r{round_index}.pgm")
    lines = ["P2", f"{n_in} {mask.size}", "255"]
    # a unit's bit fills its whole raster row of n_in fan-in columns
    lines += [" ".join([str(v)] * n_in) for v in np.where(mask > 0, 0, 255)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


CSV_HEADER = "round,mean_acc,std_acc,overall_density,per_layer_density,cum_comm_bits,cum_flops"


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run the configured strategy for ``rounds`` rounds and write
    metrics.csv, summary.json and any requested mask dumps. Returns the
    summary dict."""
    out_dir = cfg.out_dir if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    sim = build_simulation(cfg)

    rows = []
    evaluated = []
    for t in range(cfg.rounds):
        do_eval = (cfg.eval_every > 0 and (t + 1) % cfg.eval_every == 0) or t == cfg.rounds - 1
        metrics = run_strategy_round(sim, t, do_eval=do_eval)
        if do_eval:
            evaluated.append(metrics)
            rows.append(
                ",".join(
                    [
                        str(metrics.round_index),
                        _fmt(metrics.mean_accuracy),
                        _fmt(metrics.std_accuracy),
                        _fmt(metrics.overall_density),
                        ";".join(repr(float(d)) for d in metrics.per_layer_density),
                        str(metrics.cum_comm_bits),
                        str(metrics.cum_flops),
                    ]
                )
            )
        if cfg.dump_masks_every > 0 and (t + 1) % cfg.dump_masks_every == 0:
            tau, params = snapshot_view(sim, sim.clients[0])
            masks = pruning.generate_masks(sim.net, params, tau)  # one set serves every layer's dump
            for layer in range(len(sim.net.prunable)):
                dump_sparsity_pattern(sim.net, sim.clients[0], masks, layer, t, out_dir)

    with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write("\n".join([CSV_HEADER] + rows) + "\n")

    scored = [m for m in evaluated if m.mean_accuracy is not None]
    best = max(scored, key=lambda m: m.mean_accuracy) if scored else None
    summary = {
        "best_mean_accuracy": None if best is None else best.mean_accuracy,
        "best_round": None if best is None else best.round_index,
        "density_at_best": None if best is None else best.overall_density,
        "total_comm_bits": sim.ledger.total_bits,
        "total_flops": sim.ledger.flops,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary
