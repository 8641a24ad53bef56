"""Training strategies sharing one engine: the threshold-exchange protocol,
its two ablations, the dense parameter-averaging baseline, and a
communication-free local baseline."""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .federation import (
    RoundMetrics,
    Simulation,
    _finish_round,
    client_rng,
    local_train,
    run_round,
    sample_clients,
)
from .nn import NetworkParams


class StrategyId(str, Enum):
    SPAFL = "spafl"
    SPAFL_NO_IMPORTANCE = "spafl_no_importance"
    FEDAVG = "fedavg"
    LOCAL_ONLY = "local_only"
    THRESHOLDS_ONLY = "thresholds_only"


# named in the literature this package compares against, deliberately absent
UNSUPPORTED_STRATEGIES = ("fedpm", "heterofl", "fjord", "fedp3", "fedspa")


def parse_strategy(name: str) -> StrategyId:
    name = name.strip().lower()
    if name in UNSUPPORTED_STRATEGIES:
        raise ConfigurationError(
            f"strategy {name!r} is not supported; supported strategies: "
            + ", ".join(s.value for s in StrategyId)
        )
    try:
        return StrategyId(name)
    except ValueError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; supported strategies: "
            + ", ".join(s.value for s in StrategyId)
        ) from None


def aggregate_params(params_list: list[NetworkParams]) -> NetworkParams:
    """Equal-weight elementwise mean of full parameter sets."""
    if not params_list:
        raise ProtocolError("cannot aggregate an empty set of parameter sets")
    out = params_list[0].zeros_like()
    for i in range(len(out.weights)):
        out.weights[i] = np.mean([p.weights[i] for p in params_list], axis=0)
        if out.biases[i] is not None:
            out.biases[i] = np.mean([p.biases[i] for p in params_list], axis=0)
    return out


def run_spafl_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    return run_round(sim, round_index, do_eval=do_eval, use_importance=True, update_params=True)


def run_spafl_no_importance_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    """Full threshold-exchange round with the importance update disabled."""
    return run_round(sim, round_index, do_eval=do_eval, use_importance=False, update_params=True)


def run_thresholds_only_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    """Thresholds are trained and exchanged while parameters stay frozen at
    initialization (bit-exactly); the importance update is disabled too."""
    return run_round(sim, round_index, do_eval=do_eval, use_importance=False, update_params=False)


def run_fedavg_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    """Dense baseline: sampled clients pull the global model, train unmasked,
    and push full parameters back for an equal-weight average."""
    cfg = sim.config
    if sim.server.global_params is None:
        raise ConfigurationError("fedavg needs server.global_params initialized")
    before = len(sim.channel.transfers)
    ids = sample_clients(cfg.n_clients, cfg.clients_per_round, sim.server.rng)
    lr = cfg.lr_at(round_index)

    jobs = []
    skipped: list[int] = []
    for cid in ids:
        client = sim.clients[cid]
        if client.train_idx.size == 0:
            warnings.warn(f"client {cid} has no training data; skipped this round", stacklevel=2)
            skipped.append(cid)
            continue
        client.params = sim.channel.downlink(round_index, "params", sim.server.global_params)
        jobs.append((cid, client))

    flops = 0
    results = []
    for cid, client in jobs:
        _, train_flops = local_train(
            sim.net,
            sim.dataset,
            client,
            client.tau,
            epochs=cfg.local_epochs,
            lr=lr,
            alpha=cfg.alpha,
            momentum=cfg.momentum,
            batch_size=cfg.batch_size,
            rng=client_rng(cfg.seed, round_index, cid),
            update_params=True,
            update_thresholds=False,
            use_mask=False,
        )
        results.append((cid, train_flops))
        flops += train_flops

    uploads = [
        sim.channel.uplink(round_index, "params", sim.clients[cid].params)
        for cid, _ in sorted(results)
    ]
    if uploads:
        sim.server.global_params = aggregate_params(uploads)
    sim.server.round_index = round_index + 1

    metrics = _finish_round(
        sim,
        round_index,
        flops,
        before,
        do_eval,
        tau_of=lambda c: None,  # dense: density 1, no mask at evaluation
        params_of=lambda c: sim.server.global_params,
    )
    metrics.skipped_clients = skipped
    return metrics


def run_local_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    """Communication-free baseline: sampled clients train their own weights
    and their own private thresholds; nothing is ever aggregated.

    Sampling follows the same K-per-round schedule as the exchanging
    strategies, so the per-client training volume is comparable."""
    cfg = sim.config
    before = len(sim.channel.transfers)
    ids = sample_clients(cfg.n_clients, cfg.clients_per_round, sim.server.rng)
    lr = cfg.lr_at(round_index)
    flops = 0
    skipped: list[int] = []
    for cid in ids:
        client = sim.clients[cid]
        if client.train_idx.size == 0:
            warnings.warn(f"client {cid} has no training data; skipped this round", stacklevel=2)
            skipped.append(cid)
            continue
        _, train_flops = local_train(
            sim.net,
            sim.dataset,
            client,
            client.tau,
            epochs=cfg.local_epochs,
            lr=lr,
            alpha=cfg.alpha,
            momentum=cfg.momentum,
            batch_size=cfg.batch_size,
            rng=client_rng(cfg.seed, round_index, cid),
            update_params=True,
            update_thresholds=True,
        )
        flops += train_flops
    sim.server.round_index = round_index + 1

    metrics = _finish_round(
        sim,
        round_index,
        flops,
        before,
        do_eval,
        tau_of=lambda c: c.tau,
    )
    metrics.skipped_clients = skipped
    return metrics


ROUND_RUNNERS = {
    StrategyId.SPAFL: run_spafl_round,
    StrategyId.SPAFL_NO_IMPORTANCE: run_spafl_no_importance_round,
    StrategyId.THRESHOLDS_ONLY: run_thresholds_only_round,
    StrategyId.FEDAVG: run_fedavg_round,
    StrategyId.LOCAL_ONLY: run_local_round,
}


def run_strategy_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    strategy = parse_strategy(sim.config.strategy)
    return ROUND_RUNNERS[strategy](sim, round_index, do_eval=do_eval)
