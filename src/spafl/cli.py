"""Command-line front end.

``spafl run`` drives an experiment from a JSON config. Every config key is
also a flag, ``--`` plus the key with ``_`` spelled ``-`` (``--lr-decay``
sets ``lr_decay``), and flags override file keys. ``spafl verify-comm``
prints the closed-form communication totals of the reference presets so
they can be cross-checked against the comparison tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from .accounting import GBIT, spafl_comm_bits
from .errors import SpaflError, UsageError
from .experiment import ExperimentConfig, parse_config, run_experiment

# (clients per round, threshold count, rounds) of the reference runs; the
# cifar presets use the published threshold counts as given inputs
COMM_PRESETS = {
    "fmnist-lenet": dict(clients_per_round=10, tau_num=580, rounds=500),
    "cifar10-cnn7": dict(clients_per_round=10, tau_num=1418, rounds=500),
    "cifar100-resnet18": dict(clients_per_round=10, tau_num=4800, rounds=1500),
}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _flag_type(hint):
    """The argparse type of a config field: ``_int_list`` for ``list[int]``,
    the non-None arm of ``X | None``, else the hint itself."""
    if typing.get_origin(hint) is list:
        return _int_list
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spafl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--config", default=None, help="JSON config file (flat keys)")
    hints = typing.get_type_hints(ExperimentConfig)
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        run.add_argument(flag, dest=f.name, type=_flag_type(hints[f.name]), default=None)

    verify = sub.add_parser("verify-comm", help="print closed-form communication totals")
    verify.add_argument("--preset", choices=sorted(COMM_PRESETS), default=None)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    cfg = parse_config(args.config, overrides)
    summary = run_experiment(cfg)
    best = summary["best_mean_accuracy"]
    print(f"strategy={cfg.strategy} seed={cfg.seed} rounds={cfg.rounds}")
    print(f"best_mean_accuracy={'n/a' if best is None else f'{best:.4f}'}")
    print(f"total_comm_bits={summary['total_comm_bits']} total_flops={summary['total_flops']}")
    print(f"outputs in {cfg.out_dir}/")
    return 0


def cmd_verify_comm(args: argparse.Namespace) -> int:
    names = [args.preset] if args.preset else sorted(COMM_PRESETS)
    for name in names:
        p = COMM_PRESETS[name]
        bits = spafl_comm_bits(p["clients_per_round"], p["tau_num"], p["rounds"])
        print(
            f"{name}: K={p['clients_per_round']} tau_num={p['tau_num']} T={p['rounds']} "
            f"-> {bits} bits = {bits / GBIT:.4f} Gbit"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_verify_comm(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpaflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
