"""Command line front end.

One subcommand per experiment.  Options may also come from a JSON config
file (--config); explicit flags override file values, which override the
built-in defaults.  The master seed falls back to the ONEBIT_SEED
environment variable when neither source provides one.

Exit codes: 0 all verdicts passed, 1 a verdict failed, 2 bad usage or
configuration, 3 report I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .harness import ENV_SEED, REGISTRY, ExperimentConfig, default_out_path, run

# config-file keys: the fields but experiment (the subcommand), out_path as "out", and workers
_CONFIG_KEYS = tuple(
    "out" if field.name == "out_path" else field.name
    for field in dataclasses.fields(ExperimentConfig)
    if field.name != "experiment"
) + ("workers",)


def _auto_or_int(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError('expected an integer or "auto"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit",
        description="Monte Carlo checks for one-bit sensing on the sphere.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    helps = [(spec.name, spec.help) for spec in REGISTRY.values()]
    for name, text in helps + [("all", "run every experiment with shared settings")]:
        p = sub.add_parser(name, help=text)
        p.set_defaults(subparser=p)  # config errors show this subcommand's usage
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--n", type=int, help="sphere dimension (ambient n+1)")
        p.add_argument("--s", type=int, help="sparsity level")
        p.add_argument("--m", type=_auto_or_int, help='measurement count or "auto"')
        p.add_argument("--delta", type=float, help="target tolerance in (0, 1)")
        p.add_argument("--trials", type=int, help="number of seeded trials")
        p.add_argument("--seed", type=int, help="master seed (default: $ONEBIT_SEED or 0)")
        p.add_argument("--safety", type=float, help="oversampling factor for auto m")
        p.add_argument("--net-size", type=int, dest="net_size",
                       help="points per sampled net")
        p.add_argument("--out", help="report path (default onebit-<experiment>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), help="report format")
        p.add_argument("--workers", type=int, help="trial-level thread count")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    # a JSON integer delta or safety echoes as a float, as the flag's value does;
    # one past the float range stays an int for validate to reject
    for key in ("delta", "safety"):
        if type(raw.get(key)) is int and abs(raw[key]) <= sys.float_info.max:
            raw[key] = float(raw[key])
    return raw


def _resolve_seed(explicit) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}")


def parse_config(argv) -> tuple[ExperimentConfig, int]:
    parser = build_parser()
    args = parser.parse_args(argv)

    def fail(message: str):
        # parser.error's output, with the subcommand's usage in place of the top level's
        args.subparser.print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: {message}\n")

    merged: dict = {}
    if args.config is not None:
        try:
            merged.update(_load_config_file(args.config))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            fail(str(exc))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    try:
        merged["seed"] = _resolve_seed(merged.get("seed"))
    except ValueError as exc:
        fail(str(exc))
    workers = merged.pop("workers", 1)
    out_path = merged.pop("out", None)
    cfg = ExperimentConfig(
        experiment=args.experiment, out_path=out_path,
        **{k: v for k, v in merged.items()},
    )
    try:
        cfg.validate()
    except ValueError as exc:
        fail(str(exc))
    return cfg, workers


def main(argv=None) -> int:
    try:
        cfg, workers = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        status = run(cfg, workers=workers)
    except OSError as exc:
        print(f"onebit: report write failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"onebit: error: {exc}", file=sys.stderr)
        return 2
    out_path = cfg.out_path or default_out_path(cfg)
    verdict = "pass" if status == 0 else "FAIL"
    print(f"onebit {cfg.experiment}: {verdict} (report: {out_path})")
    return status


if __name__ == "__main__":
    sys.exit(main())
