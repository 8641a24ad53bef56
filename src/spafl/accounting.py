"""Communication-cost and FLOPs bookkeeping.

Wire cost prices every communicated scalar at 32 bits, matching the cost
model the comparison tables are built on (training itself runs in float64).
Compute cost counts conv and fully-connected multiply-accumulates only, with
backward charged at twice the forward cost and the once-per-round importance
update at 1.5 FLOPs per model parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .nn import Network, LayerSpec

BITS_PER_SCALAR = 32
GBIT = 1e9


def _check_nonneg(**kwargs) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")


def spafl_comm_bits(clients_per_round: int, tau_num: int, rounds: int) -> int:
    """Total threshold-exchange bits over a run: rounds * 2 * K * tau_num * 32.

    Uplink and downlink both move one threshold vector per sampled client per
    round.
    """
    _check_nonneg(clients_per_round=clients_per_round, tau_num=tau_num, rounds=rounds)
    return rounds * 2 * clients_per_round * tau_num * BITS_PER_SCALAR


def dense_comm_bits(clients_per_round: int, n_params: int, rounds: int) -> int:
    """Full-parameter-exchange analog of ``spafl_comm_bits``: rounds*2*K*d*32."""
    _check_nonneg(clients_per_round=clients_per_round, n_params=n_params, rounds=rounds)
    return rounds * 2 * clients_per_round * n_params * BITS_PER_SCALAR


def threshold_count(net: Network) -> int:
    """tau_num: one threshold per output unit of every prunable layer."""
    return int(sum(net.threshold_sizes))


def layer_flops_forward(
    spec: LayerSpec,
    density: float,
    n_batch: int,
    out_hw: tuple[int, int] | None = None,
) -> int:
    """Forward multiply-accumulates of one layer at the given density.

    conv: density * N * (c_in*kh*kw) * filters * out_h * out_w
    dense: density * N * n_in * n_out
    pool/relu layers are not charged.
    """
    if not 0.0 <= density <= 1.0:
        raise ConfigurationError(f"density must lie in [0, 1], got {density}")
    _check_nonneg(n_batch=n_batch)
    if spec.kind == "dense":
        return int(round(density * n_batch * spec.n_in * spec.n_out))
    if spec.kind == "conv2d":
        if out_hw is None:
            raise ConfigurationError("conv2d FLOPs need the output spatial dims")
        oh, ow = out_hw
        return int(round(density * n_batch * spec.n_in * spec.n_out * oh * ow))
    return 0


def importance_update_flops(n_params: int) -> int:
    """Row sums plus one multiply-add per parameter: 1.5 FLOPs each."""
    _check_nonneg(n_params=n_params)
    return int(round(1.5 * n_params))


def epoch_flops(
    net: Network,
    densities: list[float],
    n_samples: int,
    include_importance_update: bool = True,
) -> int:
    """FLOPs of one local epoch: 3x the forward cost of every prunable layer
    (forward plus a double-cost backward) over ``n_samples``, plus the
    importance-update charge when it runs (once per round, charged here when
    the flag is set)."""
    if len(densities) != len(net.prunable):
        raise ConfigurationError(
            f"expected {len(net.prunable)} densities, got {len(densities)}"
        )
    total = 0
    for rho, li in zip(densities, net.prunable):
        spec = net.specs[li]
        out_hw = net.out_shapes[li][1:] if spec.kind == "conv2d" else None
        total += 3 * layer_flops_forward(spec, rho, n_samples, out_hw)
    if include_importance_update:
        total += importance_update_flops(net.param_count)
    return total


@dataclass(frozen=True)
class RoundCosts:
    round_index: int
    bits_up: int
    bits_down: int
    flops: int


@dataclass
class CostLedger:
    """Cumulative communication and compute costs, appended at round barriers."""

    bits_up: int = 0
    bits_down: int = 0
    flops: int = 0
    rounds: list[RoundCosts] = field(default_factory=list)

    def add_round(self, round_index: int, bits_up: int, bits_down: int, flops: int) -> None:
        _check_nonneg(bits_up=bits_up, bits_down=bits_down, flops=flops)
        self.bits_up += bits_up
        self.bits_down += bits_down
        self.flops += flops
        self.rounds.append(RoundCosts(round_index, bits_up, bits_down, flops))

    @property
    def total_bits(self) -> int:
        return self.bits_up + self.bits_down
