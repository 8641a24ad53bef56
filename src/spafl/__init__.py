"""Federated learning with trainable per-filter/per-neuron pruning
thresholds: clients and server exchange only threshold vectors, parameters
stay local, and communication/FLOPs costs are tracked bit-exactly.

The package is a plain numpy library; see ``demos/`` for narrative scripts
and ``spafl --help`` for the experiment runner.
"""

from .accounting import (
    CostLedger,
    dense_comm_bits,
    epoch_flops,
    importance_update_flops,
    layer_flops_forward,
    spafl_comm_bits,
    threshold_count,
)
from .data import (
    Dataset,
    Partition,
    client_split,
    dirichlet_partition,
    load_idx,
    synth_dataset,
    write_idx,
)
from .errors import (
    ConfigurationError,
    DataError,
    NumericError,
    ProtocolError,
    SpaflError,
    UsageError,
)
from .experiment import (
    ExperimentConfig,
    build_simulation,
    dump_sparsity_pattern,
    parse_config,
    run_experiment,
)
from .federation import (
    Channel,
    ClientState,
    RoundMetrics,
    ServerState,
    Simulation,
    aggregate_thresholds,
    evaluate,
    importance_update,
    local_train,
    sample_clients,
)
from .nn import (
    LayerSpec,
    Network,
    NetworkParams,
    backward_pass,
    build_cnn7,
    build_lenet,
    build_mlp,
    clamp_parameters,
    conv2d,
    dense,
    finite_diff_oracle,
    forward_pass,
    init_params,
    loss_cross_entropy,
    maxpool2d,
    predict,
    relu,
    sgd_momentum_step,
)
from .pruning import (
    DensityReport,
    apply_mask,
    density_metrics,
    generate_mask,
    generate_masks,
    init_thresholds,
    layer_reset,
    row_mean_abs,
    sparsity_regularizer,
    threshold_gradient,
    threshold_step,
)
from .strategies import StrategyId, aggregate_params, parse_strategy, run_strategy_round

__version__ = "0.1.0"
