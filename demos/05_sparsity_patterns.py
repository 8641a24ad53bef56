"""Dump the evolving sparsity pattern of one client's first layer as PGM
images (black = active unit row, white = pruned), the way structured
sparsity is usually visualized.

Run: python demos/05_sparsity_patterns.py   (writes the .pgm files into a new
temporary directory, made with tempfile.mkdtemp and named spafl-patterns-*;
the script prints its path)
"""

import tempfile

from spafl.experiment import ExperimentConfig, build_simulation, dump_sparsity_pattern
from spafl.strategies import run_strategy_round

OUT = tempfile.mkdtemp(prefix="spafl-patterns-")

cfg = ExperimentConfig(
    clients=8, clients_per_round=4, rounds=40, epochs=2,
    synth_classes=5, synth_dim=24, synth_per_class=40, synth_spread=0.15,
    mlp_hidden=[32, 16], batch_size=8, alpha=0.015, seed=5, out_dir=OUT,
)
sim = build_simulation(cfg)

for t in range(cfg.rounds):
    run_strategy_round(sim, t)
    if (t + 1) % 10 == 0:
        for layer in range(len(sim.net.prunable)):
            path = dump_sparsity_pattern(
                sim.net, sim.clients[0], sim.server.tau_current, layer=layer, round_index=t, out_dir=OUT
            )
            mask_rows = open(path).read().splitlines()[3:]
            active = sum(1 for row in mask_rows if row.split()[0] == "0")
            print(f"round {t + 1:2d} layer {layer}: {active}/{len(mask_rows)} units active -> {path}")

print(f"\nview the .pgm files in {OUT} with any image tool; rows are output units.")
