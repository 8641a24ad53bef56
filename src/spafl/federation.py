"""Round building blocks: client and server state, the instrumented
channel, client sampling, local training of weights and thresholds,
threshold aggregation, the importance-driven parameter update derived from
consecutive global thresholds, and evaluation.

The round itself, including its round-end density and accuracy snapshot,
is one function in :mod:`spafl.strategies`, which composes these pieces per
strategy. Parameters never leave a client in threshold-exchange mode; the
only objects crossing the client/server boundary are threshold vectors (and
their consecutive-round delta, which rides along at zero wire cost because
it is reconstructible from the broadcast history). Every transfer goes
through an instrumented :class:`Channel` so tests can audit both the types
and the bit counts of a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import pruning
from .accounting import BITS_PER_SCALAR, CostLedger, epoch_flops
from .data import Dataset
from .errors import ConfigurationError, DataError, NumericError, ProtocolError
from .nn import (
    Network,
    NetworkParams,
    backward_pass,
    check_layer_count,
    clamp_parameters,
    forward_pass,
    sgd_momentum_step,
)

if TYPE_CHECKING:
    from .experiment import ExperimentConfig


@dataclass
class ClientState:
    """Everything a client owns: dense parameters (never transmitted in
    threshold-exchange mode), momentum buffers, its data split, and the
    threshold scratch vector of the most recent local training.

    ``build_simulation`` lays every client's flat parameter and momentum
    vectors out as rows of one contiguous block."""

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
    check_layer_count("delta_tau", len(delta_tau), len(params.weights))
    deltas = [np.asarray(d, dtype=np.float64) for d in delta_tau]
    for d, w in zip(deltas, params.weights):
        if d.shape[0] != w.shape[0]:
            raise ConfigurationError(
                f"delta length {d.shape[0]} does not match layer rows {w.shape[0]}"
            )
    for d, w in zip(deltas, params.weights):
        sgn = np.where(w.sum(axis=1) >= 0.0, 1.0, -1.0)
        w -= (d / w.shape[1])[:, None] * sgn[:, None]
    weights = params.flat[: params.n_weights]
    np.clip(weights, -1.0, 1.0, out=weights)


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
    train_weights: bool = True,
    train_thresholds: bool = True,
) -> tuple[list[np.ndarray], int]:
    """Run local epochs of joint weight/threshold SGD; returns (tau, flops).

    Per epoch: the mask is regenerated from the current local thresholds and
    dense weights (with the dead-layer rescue applied), then every mini-batch
    takes one masked, clamped parameter step and one clamped threshold step.
    The threshold gradient uses the weights the batch gradient was evaluated
    at. Only the final threshold vector leaves this function; the client's
    parameters and momentum are mutated in place.

    ``train_thresholds=False`` leaves the thresholds as they start (zero
    thresholds keep every unit: the dense model); ``train_weights=False``
    freezes the parameters.
    """
    if client.train_idx.size == 0:
        raise DataError(f"client {client.client_id} has no training samples")
    # one flat threshold vector and one gradient buffer for the whole call;
    # the threshold gradient lands in per-layer views of the flat ``h``
    tau = pruning.flat_thresholds(net, tau_start)
    h = np.empty_like(tau)
    h_layers = pruning.layer_thresholds(net, h)
    grads = client.params.zeros_like()
    flops = 0
    for epoch in range(epochs):
        tau_layers = pruning.layer_thresholds(net, tau)
        masks = pruning.generate_masks(net, client.params, tau_layers)
        report = pruning.density_metrics(net, masks)
        if any(rho < pruning.RESET_DENSITY for rho in report.per_layer):
            tau = np.concatenate(pruning.layer_reset(tau_layers, report))
            masks = pruning.generate_masks(net, client.params, pruning.layer_thresholds(net, tau))
            report = pruning.density_metrics(net, masks)
        flops += epoch_flops(net, report.per_layer, client.train_idx.size, include_importance_update=False)
        order = rng.permutation(client.train_idx)
        samples, labels = dataset.samples[order], dataset.labels[order]  # batches are slices
        for batch, start in enumerate(range(0, order.size, batch_size)):
            stop = start + batch_size
            try:
                backward_pass(net, client.params, masks, samples[start:stop], labels[start:stop], out=grads)
                if train_thresholds:
                    pruning.threshold_gradient(grads, client.params, out=h_layers)
                if train_weights:
                    sgd_momentum_step(client.params, grads, client.velocity, lr, momentum)
                    clamp_parameters(client.params)
            except NumericError as exc:
                raise NumericError(f"client {client.client_id}, epoch {epoch}, batch {batch}: {exc}") from exc
            if train_thresholds:
                tau = pruning.threshold_step(tau, h, lr, alpha)
    client.tau = pruning.layer_thresholds(net, tau)
    return pruning.layer_thresholds(net, tau.copy()), flops


def evaluate(
    net: Network,
    dataset: Dataset,
    client: ClientState,
    masks: list[np.ndarray] | None,
    params: NetworkParams | None = None,
) -> float | None:
    """Argmax accuracy of the (masked) model on the client's test split.

    ``masks=None`` evaluates the dense model; ``params`` overrides the
    client's own parameters (used by the dense baseline's shared model).
    Returns None for an empty test split so the caller can exclude the
    client.
    """
    if client.test_idx.size == 0:
        return None
    params = client.params if params is None else params
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
    skipped_clients: list[int]


@dataclass
class Simulation:
    """Shared bundle of everything one experiment run owns."""

    net: Network
    dataset: Dataset
    clients: list[ClientState]
    server: ServerState
    config: ExperimentConfig
    channel: Channel
    ledger: CostLedger


def client_rng(seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """Deterministic per-(round, client) stream, independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence([seed, round_index + 1, client_id]))

