"""Training strategies sharing one engine and one round: the
threshold-exchange protocol, its two ablations, the dense
parameter-averaging baseline, and a communication-free local baseline.

Every strategy plays the same round, :func:`run_strategy_round`, from client
sampling to the round-end snapshot (each client's density and accuracy).
The strategies differ only in what crosses the channel, what trains and
whether the importance update runs; :data:`STRATEGIES` holds one row of
those choices per strategy, and what the snapshot looks at follows from
what crosses the channel.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import federation, pruning
from .accounting import importance_update_flops
from .errors import ConfigurationError, ProtocolError
from .federation import (
    ClientState,
    RoundMetrics,
    Simulation,
    client_rng,
    compute_delta_tau,
    local_train,
    sample_clients,
)
from .nn import NetworkParams


class StrategyId(str, Enum):
    SPAFL = "spafl"
    SPAFL_NO_IMPORTANCE = "spafl_no_importance"
    FEDAVG = "fedavg"
    LOCAL_ONLY = "local_only"
    THRESHOLDS_ONLY = "thresholds_only"


def parse_strategy(name: str) -> StrategyId:
    name = name.strip().lower()
    try:
        return StrategyId(name)
    except ValueError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; supported strategies: "
            + ", ".join(s.value for s in StrategyId)
        ) from None


def aggregate_params(params_list: list[NetworkParams]) -> NetworkParams:
    """Equal-weight elementwise mean of full parameter sets: one mean over
    the (K, P) stack of their flat vectors."""
    if not params_list:
        raise ProtocolError("cannot aggregate an empty set of parameter sets")
    layout = params_list[0].layout
    if any(p.layout != layout for p in params_list):
        raise ProtocolError("parameter layouts differ")
    return NetworkParams.from_flat(np.mean(np.stack([p.flat for p in params_list]), axis=0), layout)


@dataclass(frozen=True)
class StrategySpec:
    """One strategy's choices within the shared round.

    ``exchange`` is what crosses the channel, both ways, and is aggregated:
    ``"thresholds"`` (the global thresholds down, plus their delta when the
    importance update runs; each client's thresholds up, averaged by
    ``aggregate_thresholds``), ``"params"`` (the global model down, each
    client's parameters up, averaged by ``aggregate_params``) or None.
    ``train_weights`` and ``train_thresholds`` say what local training
    steps; ``importance`` whether the importance update runs.

    The round-end snapshot masks and evaluates each client with the server's
    copy of what the strategy exchanges and the client's own copy of the
    rest. A strategy that trains no thresholds keeps the zero thresholds it
    starts with, which prune nothing.
    """

    exchange: str | None
    train_weights: bool
    train_thresholds: bool
    importance: bool


# columns: exchange, train_weights, train_thresholds, importance
STRATEGIES: dict[StrategyId, StrategySpec] = {
    StrategyId.SPAFL: StrategySpec("thresholds", True, True, True),
    StrategyId.SPAFL_NO_IMPORTANCE: StrategySpec("thresholds", True, True, False),
    # weights stay frozen at initialization, bit-exactly
    StrategyId.THRESHOLDS_ONLY: StrategySpec("thresholds", False, True, False),
    # the dense baseline: the masked model at zero thresholds
    StrategyId.FEDAVG: StrategySpec("params", True, False, False),
    # sampled on the same K-per-round schedule, so training volume compares
    StrategyId.LOCAL_ONLY: StrategySpec(None, True, True, False),
}


def _view(spec: StrategySpec, sim: Simulation, client: ClientState) -> tuple[list[np.ndarray], NetworkParams]:
    tau = sim.server.tau_current if spec.exchange == "thresholds" else client.tau
    params = sim.server.global_params if spec.exchange == "params" else client.params
    return tau, params


def snapshot_view(sim: Simulation, client: ClientState) -> tuple[list[np.ndarray], NetworkParams]:
    """The thresholds and the parameters the configured strategy's
    round-end snapshot masks and evaluates ``client`` with."""
    return _view(STRATEGIES[parse_strategy(sim.config.strategy)], sim, client)


def run_strategy_round(sim: Simulation, round_index: int, do_eval: bool = False) -> RoundMetrics:
    """One round of the configured strategy.

    Sample K clients; skip (with a warning) a sampled client without
    training data; send down to the others in id order; train them, on
    ``sim.config.workers`` threads; send up in id order and aggregate; book
    the round's bits and FLOPs in the ledger; then take the snapshot: every
    client's masks under its :func:`snapshot_view` give the mean per-layer and
    overall density and, on an eval round, the mean accuracy. Each client
    trains from its own RNG stream, so the worker count never changes
    results.
    """
    spec = STRATEGIES[parse_strategy(sim.config.strategy)]
    cfg = sim.config
    server = sim.server
    if spec.exchange == "params" and server.global_params is None:
        raise ConfigurationError("fedavg needs server.global_params initialized")
    before = len(sim.channel.transfers)
    ids = sample_clients(cfg.clients, cfg.clients_per_round, server.rng)
    delta = compute_delta_tau(server) if spec.importance else None
    lr = cfg.lr * cfg.lr_decay**round_index

    jobs = []
    skipped: list[int] = []
    for cid in ids:
        client = sim.clients[cid]
        if client.train_idx.size == 0:
            warnings.warn(f"client {cid} has no training data; skipped this round", stacklevel=2)
            skipped.append(cid)
            continue
        tau_start, delta_recv = client.tau, None
        if spec.exchange == "thresholds":
            tau_start = sim.channel.downlink(round_index, "thresholds", server.tau_current)
            if spec.importance:
                delta_recv = sim.channel.downlink(round_index, "threshold_delta", delta)
        elif spec.exchange == "params":
            # into the client's own row of the contiguous client state
            client.params.flat[:] = sim.channel.downlink(round_index, "params", server.global_params).flat
        jobs.append((cid, client, tau_start, delta_recv))

    def train_one(job):
        cid, client, tau_start, delta_recv = job
        spent = 0
        if delta_recv is not None:
            federation.importance_update(client.params, delta_recv)
            spent += importance_update_flops(sim.net.param_count)
        tau_k, train_flops = local_train(
            sim.net,
            sim.dataset,
            client,
            tau_start,
            epochs=cfg.epochs,
            lr=lr,
            alpha=cfg.alpha,
            momentum=cfg.momentum,
            batch_size=cfg.batch_size,
            rng=client_rng(cfg.seed, round_index, cid),
            train_weights=spec.train_weights,
            train_thresholds=spec.train_thresholds,
        )
        return client, tau_k, spent + train_flops

    if cfg.workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(train_one, jobs))
    else:
        results = [train_one(job) for job in jobs]

    flops = 0
    uploads = []
    for client, tau_k, spent in results:  # map keeps the jobs' id order
        flops += spent
        if spec.exchange == "thresholds":
            uploads.append(sim.channel.uplink(round_index, "thresholds", tau_k))
        elif spec.exchange == "params":
            uploads.append(sim.channel.uplink(round_index, "params", client.params))

    if uploads and spec.exchange == "thresholds":
        server.tau_previous = server.tau_current
        server.tau_current = federation.aggregate_thresholds(uploads)
    elif uploads:
        server.global_params = aggregate_params(uploads)
    server.round_index = round_index + 1

    sim.ledger.add_round(
        round_index,
        bits_up=sim.channel.bits("uplink", since=before),
        bits_down=sim.channel.bits("downlink", since=before),
        flops=flops,
    )

    per_layer = np.zeros(len(sim.net.prunable))
    overall = 0.0
    accs = []
    for client in sim.clients:
        tau, params = _view(spec, sim, client)
        masks = pruning.generate_masks(sim.net, params, tau)  # one set serves density and accuracy
        report = pruning.density_metrics(sim.net, masks)
        per_layer += report.per_layer
        overall += report.overall
        if do_eval:
            acc = federation.evaluate(sim.net, sim.dataset, client, masks, params=params)
            if acc is not None:
                accs.append(acc)
    n = len(sim.clients)
    return RoundMetrics(
        round_index=round_index,
        mean_accuracy=float(np.mean(accs)) if accs else None,
        std_accuracy=float(np.std(accs)) if accs else None,
        per_layer_density=list(per_layer / n),
        overall_density=overall / n,
        cum_comm_bits=sim.ledger.total_bits,
        cum_flops=sim.ledger.flops,
        skipped_clients=skipped,
    )
