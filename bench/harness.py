"""Three closed-loop federated workloads, their end-to-end metrics, a traced
run for per-module metrics, and correctness gates on every run.

Each workload is one process, one worker, one BLAS thread, and drives the
library only through ``parse_config``, ``build_simulation`` and
``run_strategy_round``. A run builds a simulation from the seed and plays
all its rounds, evaluating every round. The benchmark repeats runs of the
same inputs until ``--seconds`` is spent and reports medians over them.

Operations are rounds. A round fails when it raises a ``SpaflError`` or
fails a gate:

* its channel bits equal the closed form (``spafl_comm_bits`` or
  ``dense_comm_bits`` for one round), and so does the run's total;
* a threshold-exchange round sends no ``params`` transfer;
* the run's best mean accuracy and final overall density match the values
  recorded in ``reference.json`` for its input seed (within its tolerance),
  and every repeat of the run gives the same two values.

A run-level failure is charged to the run's last round.

Runs use only recorded input seeds, the pool ``0 .. pool-1`` of
``reference.json``: ``--seed s`` plays the pool seeds from ``s % pool`` on
(see ``pool_seeds``), so every run has recorded results to match.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import layer_table
import spafl
from run import BLAS_THREAD_VARS
from spafl import accounting, experiment, federation, pruning, strategies
from spafl.errors import SpaflError
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5  # extra timed builds per invocation, besides one per run
TABLE_REPEATS = 5  # timed calls per cell of the LeNet layer table
MB = 1e6


@dataclass(frozen=True)
class Workload:
    config: dict  # parse_config overrides on top of the model preset
    half_density_start: bool = False
    input_seeds: int = 1  # pool seeds one invocation cycles through


# Every LeNet run costs the same for every seed: K = N, so each round trains
# the whole pool, and the near-iid split (beta 1e6) with 19 samples per class
# gives each of the two clients 80 training samples, one batch of 64 and one
# of 16. Under the preset's skewed split (beta 0.2) the client sizes, and with
# them the batch shapes and the run time, changed with the seed by more than
# the bounds allow.
LENET = dict(
    model="lenet", clients=2, clients_per_round=2, epochs=1, rounds=6,
    synth_per_class=19, dirichlet_beta=1e6, workers=1,
)

# The mlp run's ledger FLOPs follow its seed's density path (4.9 to 6.3
# GFLOP over the pool); one invocation plays four seeds so that the seed's
# share of the spread between invocations shrinks.
WORKLOADS = {
    "mlp_desk": Workload(dict(model="mlp", strategy="spafl", workers=1), input_seeds=4),
    "lenet_sparse": Workload(dict(LENET, strategy="spafl"), half_density_start=True),
    "lenet_dense_fedavg": Workload(dict(LENET, strategy="fedavg")),
}


def load_reference() -> dict:
    with open(BENCH_DIR / "reference.json") as f:
        return json.load(f)


def pool_seeds(seed: int, count: int, pool: int) -> list[int]:
    """The input seeds of an invocation with ``seed``: ``count`` consecutive
    seeds of the recorded pool, starting at ``seed % pool``."""
    return [(seed + j) % pool for j in range(count)]


@dataclass(frozen=True)
class Gate:
    """Best mean accuracy and final overall density recorded per input seed
    at the commit that defined the benchmark."""

    tolerance: dict[str, float]
    recorded: dict[str, dict[str, float]]

    def check(self, seed: int, observed: dict[str, float]) -> list[str]:
        recorded = self.recorded.get(str(seed))
        if recorded is None:
            return [f"no results recorded for input seed {seed}"]
        return [
            f"{key} {value!r} differs from {recorded[key]!r} recorded for seed "
            f"{seed} by more than {self.tolerance[key]}"
            for key, value in observed.items()
            if abs(value - recorded[key]) > self.tolerance[key]
        ]


@dataclass
class RunResult:
    setup_s: float
    train_samples: int
    round_s: list[float] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    complete: bool = False
    best_mean_acc: float = 0.0
    final_density: float = 0.0
    ledger_flops: int = 0
    ledger_bits: int = 0
    bits_up: int = 0
    bits_down: int = 0
    transfers: int = 0
    skipped: int = 0
    param_count: int = 0

    @property
    def run_s(self) -> float:
        return sum(self.round_s)

    def fail(self, round_index: int, problem: str) -> None:
        self.failed.add(round_index)
        self.problems.append(problem)


def start_at_half_density(sim: federation.Simulation) -> None:
    """Set the server's current and previous global thresholds to each
    layer's median initial row magnitude: about half the rows start active,
    and the round-0 threshold delta is zero."""
    weights = sim.clients[0].params.weights  # every client starts from one init
    tau = [np.full(w.shape[0], np.median(pruning.row_mean_abs(w))) for w in weights]
    sim.server.tau_current = tau
    sim.server.tau_previous = [t.copy() for t in tau]


def train_samples(cfg: experiment.ExperimentConfig, sim: federation.Simulation) -> int:
    """Local-training samples of one run (train split x epochs over the
    sampled clients), replaying the sampling on a copy of the server's
    stream; every strategy samples once per round."""
    rng = copy.deepcopy(sim.server.rng)
    total = 0
    for _ in range(cfg.rounds):
        for cid in federation.sample_clients(cfg.clients, cfg.clients_per_round, rng):
            total += sim.clients[cid].train_idx.size
    return total * cfg.epochs


def expected_bits(cfg: experiment.ExperimentConfig, net, rounds: int) -> int:
    """Closed-form wire cost of ``rounds`` rounds of the workload's strategy."""
    if cfg.strategy == "fedavg":
        return accounting.dense_comm_bits(cfg.clients_per_round, net.param_count, rounds)
    return accounting.spafl_comm_bits(
        cfg.clients_per_round, accounting.threshold_count(net), rounds
    )


def run_once(workload: Workload, seed: int, gate: Gate | None) -> RunResult:
    """Build the simulation and play every round, checking each; without a
    gate the recorded results are not compared."""
    cfg = experiment.parse_config(None, dict(workload.config, seed=seed))
    start = perf_counter()
    sim = experiment.build_simulation(cfg)
    res = RunResult(setup_s=perf_counter() - start, train_samples=0)
    if workload.half_density_start:
        start_at_half_density(sim)
    res.train_samples = train_samples(cfg, sim)
    round_bits = expected_bits(cfg, sim.net, 1)
    best = 0.0
    for t in range(cfg.rounds):
        before = len(sim.channel)
        start = perf_counter()
        try:
            metrics = strategies.run_strategy_round(sim, t, do_eval=True)
        except SpaflError as exc:
            res.round_s.append(perf_counter() - start)
            res.fail(t, f"round {t} raised {exc!r}")
            return res
        res.round_s.append(perf_counter() - start)
        bits = sim.channel.bits(since=before)
        if bits != round_bits:
            res.fail(t, f"round {t} moved {bits} channel bits, closed form says {round_bits}")
        if cfg.strategy != "fedavg" and "params" in sim.channel.kinds(since=before):
            res.fail(t, f"round {t} sent parameters over a threshold-exchange channel")
        if metrics.mean_accuracy is not None:
            best = max(best, metrics.mean_accuracy)
        res.skipped += len(metrics.skipped_clients)
    last = cfg.rounds - 1
    total, want = sim.channel.bits(), expected_bits(cfg, sim.net, cfg.rounds)
    if total != want:
        res.fail(last, f"run moved {total} channel bits, closed form says {want}")
    res.best_mean_acc, res.final_density = best, metrics.overall_density
    observed = {"best_mean_acc": best, "final_density": res.final_density}
    for problem in gate.check(seed, observed) if gate else []:
        res.fail(last, problem)
    res.complete = True
    res.ledger_flops, res.ledger_bits = sim.ledger.flops, sim.ledger.total_bits
    res.bits_up, res.bits_down = sim.channel.bits("uplink"), sim.channel.bits("downlink")
    res.transfers = len(sim.channel)
    res.param_count = sim.net.param_count
    return res


def check_repeatable(runs: list[RunResult]) -> None:
    """Every run of one invocation has the same inputs, so the same outputs."""
    done = [r for r in runs if r.complete]
    for r in done[1:]:
        if (r.best_mean_acc, r.final_density) != (done[0].best_mean_acc, done[0].final_density):
            r.fail(len(r.round_s) - 1, "a repeat of the run gave different accuracy or density")


def time_setup(workload: Workload, seed: int) -> float:
    cfg = experiment.parse_config(None, dict(workload.config, seed=seed))
    start = perf_counter()
    experiment.build_simulation(cfg)
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB  # Linux: KiB


def ref_lenet_eta_h(samples_per_s: float, reference: dict) -> float:
    """Hours the paper's LeNet preset needs at this local-training rate."""
    ref = reference["ref_lenet_eta"]
    samples = ref["rounds"] * ref["clients_per_round"] * ref["epochs"] * ref["train_samples_per_client"]
    return samples / samples_per_s / 3600.0


@dataclass
class Report:
    runs: list[RunResult]
    metrics: dict[str, tuple[float, str]]
    info: dict
    tracers: list[Tracer] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r.round_s) for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(len(r.failed) for r in self.runs)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _repeat(seconds: float, once, minimum: int = 1) -> None:
    """Call ``once`` at least ``minimum`` times, then until another call
    would likely overrun ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        once()
        durations.append(perf_counter() - t0)
        if len(durations) >= minimum and perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure(name: str, seeds: list[int], seconds: float, gate: Gate, reference: dict) -> Report:
    """End-to-end metrics, tracing off. Every input seed runs at least
    once; a seed's run time is the median over its runs, and ``run_s`` the
    mean of those over the seeds."""
    workload = WORKLOADS[name]
    start = perf_counter()
    setups = [time_setup(workload, seeds[i % len(seeds)]) for i in range(SETUP_REPEATS)]
    by_seed: dict[int, list[RunResult]] = {s: [] for s in seeds}
    order = itertools.cycle(seeds)

    def once():
        seed = next(order)
        by_seed[seed].append(run_once(workload, seed, gate))

    _repeat(seconds - (perf_counter() - start), once, len(seeds))
    runs = [r for seed_runs in by_seed.values() for r in seed_runs]
    done = {}  # per seed: its complete runs, or all of them
    for s, seed_runs in by_seed.items():
        check_repeatable(seed_runs)
        done[s] = [r for r in seed_runs if r.complete] or seed_runs
    seed_run_s = [statistics.median(r.run_s for r in done[s]) for s in seeds]
    run_s = statistics.fmean(seed_run_s)
    rounds = [x for s in seeds for r in done[s] for x in r.round_s]
    p90 = float(np.percentile(rounds, 90))
    samples_per_s = sum(done[s][0].train_samples for s in seeds) / sum(seed_run_s)
    gflop = sum(done[s][0].ledger_flops for s in seeds) / 1e9
    metrics = {
        "setup_s": (statistics.median(setups + [r.setup_s for r in runs]), "s"),
        "run_s": (run_s, "s"),
        "round_ms.p50": (1000.0 * statistics.median(rounds), "ms"),
        "round_ms.p90": (1000.0 * p90, "ms"),
        "train_samples_per_s": (samples_per_s, "1/s"),
        "ledger_gflop_per_s": (gflop / sum(seed_run_s), "GFLOP/s"),
        "ref_lenet_eta_h": (ref_lenet_eta_h(samples_per_s, reference), "h"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "input_seeds": seeds,
        "run_s_each": {s: [r.run_s for r in by_seed[s]] for s in seeds},
        "rounds_pooled": len(rounds),
        "rounds_beyond_p90": sum(x > p90 for x in rounds),
        "setups_timed": len(setups) + len(runs),
        "best_mean_acc": {s: done[s][0].best_mean_acc for s in seeds},
        "final_density": {s: done[s][0].final_density for s in seeds},
    }
    return Report(runs, metrics, info)


def layer_metrics(tracer: Tracer, run: RunResult) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced run."""
    totals = tracer.totals()

    def calls(name):
        return (totals.get(name, (0, 0.0))[0], "count")

    def busy(name):
        return (1000.0 * totals.get(name, (0, 0.0))[1], "ms")

    n_back, back_s = totals["nn.backward_pass"]
    importance_flops = totals.get("federation.importance_update", (0, 0.0))[0] * (
        accounting.importance_update_flops(run.param_count)
    )
    return {
        "nn.backward_pass.calls": (n_back, "count"),
        "nn.backward_pass.busy_ms": busy("nn.backward_pass"),
        "nn.backward_pass.us_per_call": (1e6 * back_s / n_back, "us"),
        "nn.forward_pass.busy_ms": busy("nn.forward_pass"),
        "nn.sgd_momentum_step.busy_ms": busy("nn.sgd_momentum_step"),
        "nn.clamp_parameters.busy_ms": busy("nn.clamp_parameters"),
        "nn.train_ledger_gflop_per_s": ((run.ledger_flops - importance_flops) / 1e9 / back_s, "GFLOP/s"),
        "pruning.generate_masks.calls": calls("pruning.generate_masks"),
        "pruning.generate_masks.busy_ms": busy("pruning.generate_masks"),
        "pruning.generate_masks.mask_mb": (tracer.mask_bytes / MB, "MB"),
        "pruning.threshold_gradient.busy_ms": busy("pruning.threshold_gradient"),
        "pruning.threshold_step.busy_ms": busy("pruning.threshold_step"),
        "pruning.density_metrics.busy_ms": busy("pruning.density_metrics"),
        "pruning.layer_reset.calls": calls("pruning.layer_reset"),
        "federation.local_train.calls": calls("federation.local_train"),
        "federation.local_train.busy_ms": busy("federation.local_train"),
        "federation.importance_update.busy_ms": busy("federation.importance_update"),
        "federation.aggregate_thresholds.busy_ms": busy("federation.aggregate_thresholds"),
        "federation.evaluate.calls": calls("federation.evaluate"),
        "federation.evaluate.busy_ms": busy("federation.evaluate"),
        "federation.evaluate.best_mean_acc": (run.best_mean_acc, "fraction"),
        "federation.channel.transfers": (run.transfers, "count"),
        "federation.channel.bits_up": (run.bits_up, "bit"),
        "federation.channel.bits_down": (run.bits_down, "bit"),
        "federation.channel.busy_ms": busy("federation.channel"),
        "federation.round_self_ms": (1000.0 * tracer.self_seconds("strategies.run_strategy_round"), "ms"),
        "federation.skipped_clients": (run.skipped, "count"),
        "strategies.aggregate_params.busy_ms": busy("strategies.aggregate_params"),
        "strategies.run_strategy_round.calls": calls("strategies.run_strategy_round"),
        "strategies.run_strategy_round.busy_ms": busy("strategies.run_strategy_round"),
        "data.synth_dataset_ms": busy("data.synth_dataset"),
        "data.dirichlet_partition_ms": busy("data.dirichlet_partition"),
        "data.client_split_ms": busy("data.client_split"),
        "accounting.ledger_gflop": (run.ledger_flops / 1e9, "GFLOP"),
        "accounting.ledger_bits": (run.ledger_bits, "bit"),
        "experiment.build_simulation_ms": busy("experiment.build_simulation"),
        "experiment.parse_config_ms": busy("experiment.parse_config"),
    }


def measure_traced(name: str, seeds: list[int], seconds: float, gate: Gate, reference: dict) -> Report:
    """Per-module metrics: the LeNet layer table, then pairs of an untraced
    and a traced run, one input seed after another; their run-time
    difference is the tracing overhead."""
    workload = WORKLOADS[name]
    start = perf_counter()
    table = layer_table.measure(np.random.default_rng(seeds[0]), TABLE_REPEATS)
    untraced: list[RunResult] = []
    traced: list[RunResult] = []
    tracers: list[Tracer] = []
    by_seed: dict[int, list[RunResult]] = {s: [] for s in seeds}
    order = itertools.cycle(seeds)

    def pair():
        seed = next(order)
        untraced.append(run_once(workload, seed, gate))
        tracer = Tracer(f"{name}-seed{seed}-run{len(tracers)}")
        with tracer.installed():
            traced.append(run_once(workload, seed, gate))
        tracers.append(tracer)
        by_seed[seed] += [untraced[-1], traced[-1]]

    _repeat(seconds - (perf_counter() - start), pair)
    runs = untraced + traced
    for seed_runs in by_seed.values():
        check_repeatable(seed_runs)
    per_run = [layer_metrics(t, r) for t, r in zip(tracers, traced)]
    metrics = {k: (statistics.median(m[k][0] for m in per_run), u) for k, (_, u) in per_run[0].items()}
    metrics.update({k: (v, "ms") for k, v in table.items()})
    # each untraced run has the inputs of the traced run it pairs with
    plain = statistics.median(r.run_s for r in untraced)
    with_spans = statistics.median(r.run_s for r in traced)
    metrics["trace.untraced_run_s"] = (plain, "s")
    metrics["trace.traced_run_s"] = (with_spans, "s")
    metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
    info = {"runs": len(runs), "traced_runs": len(traced), "spans": sum(len(t.spans) for t in tracers)}
    return Report(runs, metrics, info, tracers)


def environment(seed: int, seeds: list[int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "input_seeds": seeds,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not Path(spafl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported spafl from {spafl.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = load_reference()
    gate = Gate(**reference["gates"][args.workload])
    seeds = pool_seeds(args.seed, WORKLOADS[args.workload].input_seeds, reference["seeds"]["pool"])
    measure_fn = measure_traced if args.trace else measure
    report = measure_fn(args.workload, seeds, args.seconds, gate, reference)
    env = environment(args.seed, seeds)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems = [p for r in report.runs for p in r.problems]
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump({"env": env, "info": report.info, "problems": problems, **report.result()}, f, indent=1)
    if report.tracers:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as f:
            for tracer in report.tracers:
                tracer.write(f)

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"info": report.info}))
    print(json.dumps(report.result()))
    return 0
