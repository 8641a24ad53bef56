"""Re-record ``tests/golden_artifacts.json``: the SHA-256 of every file the
two reference runs write for each strategy, plus the environment that wrote
them.

The reference runs are these two commands, once per strategy, at
``--workers 1``:

    spafl run --model mlp --rounds 8 --eval-every 2 --dump-masks-every 4 --seed 3
    spafl run --model lenet --rounds 6 --clients 2 --clients-per-round 2 --synth-per-class 19 --dump-masks-every 3

They run in-process with the config's ``out_dir`` left at ``"runs"``, so
``summary.json``, which echoes it, does not depend on where the files land.

Run from the repository root, only when a change means to alter the
artifacts (and say so in the change's notes):

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import os

# one BLAS thread, as the test suite runs (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from spafl.experiment import parse_config, run_experiment
from spafl.strategies import StrategyId

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/record_golden.py"

COMMANDS = {
    "mlp": dict(model="mlp", rounds=8, eval_every=2, dump_masks_every=4, seed=3),
    "lenet": dict(
        model="lenet", rounds=6, clients=2, clients_per_round=2, synth_per_class=19, dump_masks_every=3
    ),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        return ""


def environment() -> dict[str, str]:
    """What the digests depend on besides the code: the interpreter, numpy,
    its BLAS and the processor."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": f"{platform.machine()} {_cpu_model()}".strip(),
    }


def run_all(root: Path) -> dict[str, str]:
    """Run both commands for every strategy under ``root``; returns the
    digest of each written file, keyed ``command/strategy/file``."""
    digests = {}
    for name, flags in COMMANDS.items():
        for strategy in StrategyId:
            cfg = parse_config(None, dict(flags, strategy=strategy.value, workers=1, out_dir="runs"))
            out = root / name / strategy.value
            run_experiment(cfg, out_dir=str(out))
            for path in sorted(out.iterdir()):
                digests[f"{name}/{strategy.value}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "files": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")


if __name__ == "__main__":
    main()
