"""The benchmark's spans see every traced call of a round: the round
skeleton and the local training step reach each traced function through the
namespace the tracer patches, so no per-module metric silently reads 0."""

import sys
from pathlib import Path

import pytest

from spafl.experiment import ExperimentConfig, build_simulation
from spafl.strategies import run_strategy_round

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import Tracer  # noqa: E402

EXPECTED_SPANS = {
    "spafl": {
        "federation.importance_update",
        "federation.aggregate_thresholds",
        "federation.local_train",
        "federation.evaluate",
        "federation.channel",
        # the per-step and per-epoch calls inside local training
        "nn.backward_pass",
        "nn.sgd_momentum_step",
        "nn.clamp_parameters",
        "pruning.threshold_gradient",
        "pruning.threshold_step",
        "pruning.generate_masks",
        "pruning.density_metrics",
    },
    # local training and the snapshot mask under zero thresholds, like
    # every other strategy
    "fedavg": {
        "strategies.aggregate_params",
        "federation.channel",
        "federation.local_train",
        "federation.evaluate",
        "nn.backward_pass",
        "pruning.generate_masks",
        "pruning.density_metrics",
    },
    "local_only": {"federation.local_train", "federation.evaluate"},
}


@pytest.mark.parametrize("strategy", sorted(EXPECTED_SPANS))
def test_round_records_expected_spans(strategy):
    sim = build_simulation(ExperimentConfig(
        strategy=strategy, clients=4, clients_per_round=2, epochs=1,
        synth_classes=3, synth_dim=8, synth_per_class=10, mlp_hidden=[6], seed=0,
    ))
    tracer = Tracer(strategy)
    with tracer.installed():
        run_strategy_round(sim, 0, do_eval=True)
    missing = EXPECTED_SPANS[strategy] - set(tracer.totals())
    assert not missing, f"{strategy}: no span recorded for {sorted(missing)}"
