"""Round orchestration: client sampling, local training of weights and
thresholds, threshold-only aggregation, and the importance-driven parameter
update derived from consecutive global thresholds.

Parameters never leave a client in threshold-exchange mode; the only objects
crossing the client/server boundary are threshold vectors (and their
consecutive-round delta, which rides along at zero wire cost because it is
reconstructible from the broadcast history). Every transfer goes through an
instrumented :class:`Channel` so tests can audit both the types and the bit
counts of a round.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import pruning
from .accounting import BITS_PER_SCALAR, CostLedger, epoch_flops, importance_update_flops
from .data import Dataset
from .errors import ConfigurationError, DataError, ProtocolError
from .nn import (
    Network,
    NetworkParams,
    backward_pass,
    clamp_parameters,
    forward_pass,
    sgd_momentum_step,
)


@dataclass
class ClientState:
    """Everything a client owns: dense parameters (never transmitted in
    threshold-exchange mode), momentum buffers, its data split, and the
    threshold scratch vector of the most recent local training."""

    client_id: int
    params: NetworkParams
    velocity: NetworkParams
    tau: list[np.ndarray]
    train_idx: np.ndarray
    test_idx: np.ndarray


@dataclass
class ServerState:
    """Current and previous global thresholds plus the sampling stream."""

    tau_current: list[np.ndarray]
    tau_previous: list[np.ndarray]
    round_index: int
    rng: np.random.Generator
    global_params: NetworkParams | None = None  # dense-baseline aggregate


@dataclass
class RoundConfig:
    n_clients: int
    clients_per_round: int
    local_epochs: int
    lr: float
    alpha: float
    momentum: float = 0.9
    batch_size: int = 32
    lr_decay: float = 1.0
    strategy: str = "spafl"
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ConfigurationError(
                f"K <= N required: clients_per_round={self.clients_per_round}, n_clients={self.n_clients}"
            )
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be >= 1")
        if self.lr < 0:
            raise ConfigurationError("lr must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in [0, 1]")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")

    def lr_at(self, round_index: int) -> float:
        return self.lr * self.lr_decay**round_index


@dataclass(frozen=True)
class Transfer:
    round_index: int
    direction: str  # "downlink" | "uplink"
    kind: str  # "thresholds" | "threshold_delta" | "params"
    n_scalars: int
    bits: int


class Channel:
    """Instrumented client/server link: every transfer is type-tagged and
    billed at 32 bits per scalar.

    A ``threshold_delta`` payload is billed zero bits: the delta of two
    consecutive global threshold broadcasts carries no information a listener
    of both broadcasts lacks, and the protocol's cost model prices the
    downlink as exactly one threshold vector per sampled client.
    """

    PRICING = {"thresholds": BITS_PER_SCALAR, "threshold_delta": 0, "params": BITS_PER_SCALAR}

    def __init__(self):
        self.transfers: list[Transfer] = []

    def _payload_copy(self, payload):
        if isinstance(payload, NetworkParams):
            return payload.copy(), payload.n_scalars
        copied = [np.asarray(a).copy() for a in payload]
        return copied, sum(a.size for a in copied)

    def _send(self, round_index: int, direction: str, kind: str, payload):
        if kind not in self.PRICING:
            raise ProtocolError(f"kind {kind!r} may not cross the client/server boundary")
        copied, n_scalars = self._payload_copy(payload)
        self.transfers.append(
            Transfer(round_index, direction, kind, n_scalars, n_scalars * self.PRICING[kind])
        )
        return copied

    def downlink(self, round_index: int, kind: str, payload):
        """Server-to-client transfer; returns an owned copy for the client."""
        return self._send(round_index, "downlink", kind, payload)

    def uplink(self, round_index: int, kind: str, payload):
        """Client-to-server transfer; returns an owned copy for the server."""
        return self._send(round_index, "uplink", kind, payload)

    def bits(self, direction: str | None = None, since: int = 0) -> int:
        return sum(
            t.bits
            for t in self.transfers[since:]
            if direction is None or t.direction == direction
        )

    def scalars(self, kind: str | None = None, since: int = 0) -> int:
        return sum(
            t.n_scalars
            for t in self.transfers[since:]
            if kind is None or t.kind == kind
        )

    def kinds(self, since: int = 0) -> set[str]:
        return {t.kind for t in self.transfers[since:]}

    def __len__(self) -> int:
        return len(self.transfers)


def sample_clients(n_clients: int, k: int, rng: np.random.Generator) -> list[int]:
    """K distinct ids, uniform without replacement, returned id-sorted."""
    if k > n_clients:
        raise ConfigurationError(f"cannot sample {k} of {n_clients} clients")
    ids = rng.choice(n_clients, size=k, replace=False)
    return sorted(int(i) for i in ids)


def importance_update(params: NetworkParams, delta_tau: list[np.ndarray]) -> None:
    """Shift every weight row by -(delta/n_in) * sign(row sum), in place.

    The magnitude is |delta|/n_in and the direction combines the sign of the
    global threshold delta with the dominant sign of the row: a row whose
    threshold dropped (it proved globally important) is reinforced, a row
    whose threshold rose is shrunk. sign(0) counts as +1. Applied to every
    row, pruned or not; biases are untouched; results are clamped to [-1, 1].
    """
    for pi, w in enumerate(params.weights):
        d = np.asarray(delta_tau[pi], dtype=np.float64)
        if d.shape[0] != w.shape[0]:
            raise ConfigurationError(
                f"delta length {d.shape[0]} does not match layer rows {w.shape[0]}"
            )
        sgn = np.where(w.sum(axis=1) >= 0.0, 1.0, -1.0)
        w -= (d / w.shape[1])[:, None] * sgn[:, None]
        np.clip(w, -1.0, 1.0, out=w)


def compute_delta_tau(server: ServerState) -> list[np.ndarray]:
    """Consecutive-round global threshold delta; zeros at round 0."""
    return [cur - prev for cur, prev in zip(server.tau_current, server.tau_previous)]


def aggregate_thresholds(tau_list: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Equal-weight elementwise mean of the clients' threshold vectors."""
    if not tau_list:
        raise ProtocolError("cannot aggregate an empty set of threshold vectors")
    layouts = {tuple(t.shape[0] for t in tau) for tau in tau_list}
    if len(layouts) != 1:
        raise ProtocolError(f"threshold layouts differ: {layouts}")
    n_layers = len(tau_list[0])
    return [np.mean([tau[i] for tau in tau_list], axis=0) for i in range(n_layers)]


def local_train(
    net: Network,
    dataset: Dataset,
    client: ClientState,
    tau_start: list[np.ndarray],
    *,
    epochs: int,
    lr: float,
    alpha: float,
    momentum: float,
    batch_size: int,
    rng: np.random.Generator,
    update_params: bool = True,
    update_thresholds: bool = True,
    use_mask: bool = True,
) -> tuple[list[np.ndarray], int]:
    """Run local epochs of joint weight/threshold SGD; returns (tau, flops).

    Per epoch: the mask is regenerated from the current local thresholds and
    dense weights (with the dead-layer rescue applied), then every mini-batch
    takes one masked, clamped parameter step and one clamped threshold step.
    The threshold gradient uses the weights the batch gradient was evaluated
    at. Only the final threshold vector leaves this function; the client's
    parameters and momentum are mutated in place.
    """
    if client.train_idx.size == 0:
        raise DataError(f"client {client.client_id} has no training samples")
    tau = [t.copy() for t in tau_start]
    flops = 0
    for _ in range(epochs):
        if use_mask:
            masks = pruning.generate_masks(net, client.params, tau)
            report = pruning.density_metrics(masks)
            if any(rho < pruning.RESET_DENSITY for rho in report.per_layer):
                tau = pruning.layer_reset(tau, report)
                masks = pruning.generate_masks(net, client.params, tau)
                report = pruning.density_metrics(masks)
            densities = report.per_layer
        else:
            masks = None
            densities = [1.0] * len(net.prunable)
        flops += epoch_flops(net, densities, client.train_idx.size, include_importance_update=False)
        order = rng.permutation(client.train_idx)
        for start in range(0, order.size, batch_size):
            idx = order[start : start + batch_size]
            xb = dataset.samples[idx]
            yb = dataset.labels[idx]
            _, grads = backward_pass(net, client.params, masks, xb, yb)
            if update_thresholds:
                h = pruning.threshold_gradient(grads, client.params, masks)
            if update_params:
                sgd_momentum_step(client.params, grads, client.velocity, lr, momentum)
                clamp_parameters(client.params)
            if update_thresholds:
                tau = pruning.threshold_step(tau, h, lr, alpha)
    client.tau = [t.copy() for t in tau]
    return tau, flops


def evaluate(
    net: Network,
    dataset: Dataset,
    client: ClientState,
    tau: list[np.ndarray] | None,
    params: NetworkParams | None = None,
) -> float | None:
    """Argmax accuracy of the (masked) model on the client's test split.

    ``tau=None`` evaluates the dense model; ``params`` overrides the client's
    own parameters (used by the dense baseline's shared model). Returns None
    for an empty test split so the caller can exclude the client.
    """
    if client.test_idx.size == 0:
        return None
    params = client.params if params is None else params
    masks = None if tau is None else pruning.generate_masks(net, params, tau)
    logits = forward_pass(net, params, masks, dataset.samples[client.test_idx])
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == dataset.labels[client.test_idx]))


@dataclass
class RoundMetrics:
    round_index: int
    mean_accuracy: float | None
    std_accuracy: float | None
    per_layer_density: list[float]
    overall_density: float
    cum_comm_bits: int
    cum_flops: int
    accuracies: list[float] | None = None  # per evaluated client, id order
    skipped_clients: list[int] = field(default_factory=list)


@dataclass
class Simulation:
    """Shared bundle of everything one experiment run owns."""

    net: Network
    dataset: Dataset
    clients: list[ClientState]
    server: ServerState
    config: RoundConfig
    channel: Channel
    ledger: CostLedger
    history: list[RoundMetrics] = field(default_factory=list)


def client_rng(seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """Deterministic per-(round, client) stream, independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence([seed, round_index + 1, client_id]))


def _density_snapshot(sim: Simulation, tau_of) -> tuple[list[float], float]:
    """Mean per-layer and overall density across clients under tau_of(client)."""
    per_layer = np.zeros(len(sim.net.prunable))
    overall = 0.0
    for client in sim.clients:
        tau = tau_of(client)
        if tau is None:
            report = pruning.DensityReport(per_layer=[1.0] * len(sim.net.prunable), overall=1.0)
        else:
            report = pruning.density_metrics(pruning.generate_masks(sim.net, client.params, tau))
        per_layer += np.asarray(report.per_layer)
        overall += report.overall
    n = len(sim.clients)
    return list(per_layer / n), overall / n


def _accuracy_snapshot(sim: Simulation, tau_of, params_of=None) -> list[float]:
    accs = []
    for client in sim.clients:
        params = None if params_of is None else params_of(client)
        acc = evaluate(sim.net, sim.dataset, client, tau_of(client), params=params)
        if acc is not None:
            accs.append(acc)
    return accs


def _finish_round(
    sim: Simulation,
    round_index: int,
    flops: int,
    transfers_before: int,
    do_eval: bool,
    tau_of,
    params_of=None,
) -> RoundMetrics:
    bits_up = sim.channel.bits("uplink", since=transfers_before)
    bits_down = sim.channel.bits("downlink", since=transfers_before)
    sim.ledger.add_round(round_index, bits_up=bits_up, bits_down=bits_down, flops=flops)
    per_layer, overall = _density_snapshot(sim, tau_of)
    accs = _accuracy_snapshot(sim, tau_of, params_of) if do_eval else None
    metrics = RoundMetrics(
        round_index=round_index,
        mean_accuracy=float(np.mean(accs)) if accs else None,
        std_accuracy=float(np.std(accs)) if accs else None,
        per_layer_density=per_layer,
        overall_density=overall,
        cum_comm_bits=sim.ledger.total_bits,
        cum_flops=sim.ledger.flops,
        accuracies=accs,
    )
    sim.history.append(metrics)
    return metrics


def run_round(
    sim: Simulation,
    round_index: int,
    *,
    do_eval: bool = False,
    use_importance: bool = True,
    update_params: bool = True,
) -> RoundMetrics:
    """One threshold-exchange round.

    Sample K clients; broadcast the global thresholds (with the previous
    round's delta riding along); each sampled client applies the importance
    update, trains locally and uploads its threshold vector; the server
    stores the equal-weight mean as the next global thresholds.

    ``use_importance=False`` skips the importance update (ablation);
    ``update_params=False`` freezes parameters (thresholds-only mode, which
    also never applies the importance update).
    """
    cfg = sim.config
    before = len(sim.channel.transfers)
    ids = sample_clients(cfg.n_clients, cfg.clients_per_round, sim.server.rng)
    delta = compute_delta_tau(sim.server)
    lr = cfg.lr_at(round_index)
    apply_importance = use_importance and update_params

    jobs = []
    skipped: list[int] = []
    for cid in ids:
        client = sim.clients[cid]
        if client.train_idx.size == 0:
            warnings.warn(f"client {cid} has no training data; skipped this round", stacklevel=2)
            skipped.append(cid)
            continue
        tau_recv = sim.channel.downlink(round_index, "thresholds", sim.server.tau_current)
        delta_recv = (
            sim.channel.downlink(round_index, "threshold_delta", delta) if apply_importance else None
        )
        jobs.append((cid, client, tau_recv, delta_recv))

    flops = 0

    def train_one(job):
        cid, client, tau_recv, delta_recv = job
        spent = 0
        if apply_importance:
            importance_update(client.params, delta_recv)
            spent += importance_update_flops(sim.net.param_count)
        tau_k, train_flops = local_train(
            sim.net,
            sim.dataset,
            client,
            tau_recv,
            epochs=cfg.local_epochs,
            lr=lr,
            alpha=cfg.alpha,
            momentum=cfg.momentum,
            batch_size=cfg.batch_size,
            rng=client_rng(cfg.seed, round_index, cid),
            update_params=update_params,
            update_thresholds=True,
        )
        return cid, tau_k, spent + train_flops

    if cfg.workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(train_one, jobs))
    else:
        results = [train_one(job) for job in jobs]

    uploads = []
    for cid, tau_k, spent in sorted(results):  # id-sorted: aggregation is order-free
        uploads.append(sim.channel.uplink(round_index, "thresholds", tau_k))
        flops += spent

    if uploads:
        new_tau = aggregate_thresholds(uploads)
        sim.server.tau_previous = sim.server.tau_current
        sim.server.tau_current = new_tau
    sim.server.round_index = round_index + 1

    metrics = _finish_round(
        sim,
        round_index,
        flops,
        before,
        do_eval,
        tau_of=lambda c: sim.server.tau_current,
    )
    metrics.skipped_clients = skipped
    return metrics
