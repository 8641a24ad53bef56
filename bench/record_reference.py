"""Record the gate values in ``bench/reference.json``.

    python3 bench/record_reference.py [workload ...]

Runs each named workload (default: all) once per seed of the pool
(``seeds.pool`` in the file) and stores its best mean accuracy and final
overall density. Re-record only in a change that means to alter training
results, and say so in that change.
"""

import json
import sys

from run import prepare_process


def record(names: list[str]) -> None:
    import harness

    reference = harness.load_reference()
    for name in names or sorted(harness.WORKLOADS):
        recorded = {}
        for seed in range(reference["seeds"]["pool"]):
            run = harness.run_once(harness.WORKLOADS[name], seed, None)
            if run.problems:
                raise SystemExit(f"{name} seed {seed}: {run.problems}")
            recorded[str(seed)] = {"best_mean_acc": run.best_mean_acc, "final_density": run.final_density}
            print(name, seed, recorded[str(seed)], flush=True)
        reference["gates"][name]["recorded"] = recorded
    with open(harness.BENCH_DIR / "reference.json", "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    prepare_process()
    record(sys.argv[1:])
