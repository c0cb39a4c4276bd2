"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance failure in `report`.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, validate_config
from .errors import ConfigError, ParoscError
from .pipeline import (
    report_artifacts,
    run_single,
    run_sweep_ratio_vs_s,
    run_sweep_variance_vs_tone_ratio,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


def _add_common(sub):
    sub.add_argument("--config", help="path to the key=value config file")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--out", required=True, help="artifact output directory")
    sub.add_argument(
        "--workers", type=int,
        help="threads: simulate uses them within each repetition, sweeps across points; "
        "artifacts do not depend on the count",
    )
    sub.add_argument("--keep-raw", action="store_true", help="persist raw records")


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig.defaults()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = str(args.workers)
    if getattr(args, "keep_raw", False):
        overrides["keep_raw"] = "true"
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse the value list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parosc",
        description="Simulate and analyse heterodyne records of a parametrically squeezed oscillator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="one seeded end-to-end run")
    _add_common(p)

    p = sub.add_parser("sweep-ratios", help="sideband ratios R+/- versus set parametric gain")
    _add_common(p)
    p.add_argument("--s-values", default="0,0.1,0.2,0.3,0.4,0.5",
                   help="comma list of parametric gains")

    p = sub.add_parser("sweep-variances", help="quadrature variances versus tone power split")
    _add_common(p)
    p.add_argument("--epsilon-values", default="1.0,0.95,0.9,0.85,0.8",
                   help="comma list of cooling-tone power fractions")

    p = sub.add_parser("report", help="render and gate an artifact directory")
    p.add_argument("--out", required=True, help="artifact directory to report on")

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", help="path to the key=value config file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "validate-config":
            config = RunConfig.from_file(args.config) if args.config else RunConfig.defaults()
            problems = validate_config(config)
            if problems:
                for problem in problems:
                    print(f"config error: {problem}", file=sys.stderr)
                return EXIT_CONFIG
            print(f"config ok (hash {config.config_hash()})")
            return EXIT_OK

        if args.verb == "report":
            text, ok = report_artifacts(args.out)
            print(text, end="")
            return EXIT_OK if ok else EXIT_ACCEPTANCE

        config = _load_config(args)
        if args.verb == "simulate":
            report = run_single(config, args.out)
            print(f"wrote {args.out}/report.txt "
                  f"({sum(c['passed'] for c in report['checks'])}/{len(report['checks'])} checks passed)")
            return EXIT_OK
        if args.verb == "sweep-ratios":
            summary = run_sweep_ratio_vs_s(config, _parse_floats(args.s_values), args.out)
            failed = [e for e in summary if e["status"] != "ok"]
            print(f"{len(summary) - len(failed)}/{len(summary)} points ok; "
                  f"summary in {args.out}/sweep_summary.csv")
            return EXIT_OK
        if args.verb == "sweep-variances":
            summary = run_sweep_variance_vs_tone_ratio(
                config, _parse_floats(args.epsilon_values), args.out
            )
            failed = [e for e in summary if e["status"] != "ok"]
            print(f"{len(summary) - len(failed)}/{len(summary)} points ok; "
                  f"summary in {args.out}/sweep_summary.csv")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParoscError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
