"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Shrinks every workload to a round or two and runs it untraced and traced.
Checks that the result line has exactly the four keys, reports no failed
round, and holds every metric ``BENCHMARK.json`` names with its unit (and a
positive value for the end-to-end ones), also for a seed far outside the
pool of recorded input seeds. Then it makes the expected channel
bits wrong by one scalar per round and checks that every round is reported
failed. Exits 0 when every check passes.
"""

import contextlib
import dataclasses
import io
import json
import sys

from run import ROOT, prepare_process

TINY_MLP = dict(
    model="mlp", strategy="spafl", workers=1, clients=4, clients_per_round=2,
    rounds=2, epochs=1, synth_per_class=6, mlp_hidden=[8],
)
TINY_LENET = dict(model="lenet", workers=1, clients=2, clients_per_round=2, rounds=1, epochs=1, synth_per_class=3)


def shrink(harness, layer_table) -> None:
    tiny = dict(
        mlp_desk=TINY_MLP,
        lenet_sparse=dict(TINY_LENET, strategy="spafl"),
        lenet_dense_fedavg=dict(TINY_LENET, strategy="fedavg"),
    )
    for name, config in tiny.items():
        harness.WORKLOADS[name] = dataclasses.replace(harness.WORKLOADS[name], config=config)
    harness.SETUP_REPEATS = 1
    harness.TABLE_REPEATS = 1
    layer_table.BATCH = 4
    reference = harness.load_reference()
    for gate in reference["gates"].values():  # recorded values hold at full size only
        gate["tolerance"] = dict.fromkeys(gate["tolerance"], 1.0)
    harness.load_reference = lambda: reference


def run_main(harness, workload: str, trace: int, seed: int = 0) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = harness.main(argv)
    if code != 0:
        raise SystemExit(f"{workload} trace {trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, want: dict[str, str], positive: bool) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if got.get(name) != want.get(name):
            problems.append(f"metric {name}: unit {got.get(name)!r}, expected {want.get(name)!r}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (positive and not m["value"] > 0):
            problems.append(f"metric {name}: value {m['value']!r}")
    return problems


def main() -> int:
    prepare_process()
    import harness
    import layer_table

    shrink(harness, layer_table)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            result = run_main(harness, workload, trace)
            for problem in check_result(result, want, positive=(trace == 0)):
                failures.append(f"{workload} trace {trace}: {problem}")

    # a seed far outside the pool still plays recorded input seeds
    for problem in check_result(run_main(harness, "mlp_desk", 0, seed=1082223384), {}, positive=False):
        if not problem.startswith("metric"):
            failures.append(f"seed outside the pool: {problem}")

    right = harness.expected_bits
    harness.expected_bits = lambda cfg, net, rounds: right(cfg, net, rounds) + 32 * rounds
    with contextlib.redirect_stderr(io.StringIO()):
        result = run_main(harness, "mlp_desk", 0)
    if result["correct"] or result["failed"] != result["attempted"]:
        failures.append(f"wrong expected bits: correct={result['correct']} failed={result['failed']} "
                        f"of {result['attempted']} rounds")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
