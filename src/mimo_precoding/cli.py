"""Command-line interface.

Subcommands:
    generate  draw synthetic channels and write them to binary channel files
    run       execute a scenario sweep, export the report and print the mean
              SE-IRC per channel-quality point and algorithm
    trace     run one quasi-Newton optimization and dump its per-iteration trace

Exit codes: 0 on success, 1 on configuration errors (an output that cannot be
written among them), 2 when a sweep finished but some grid cells failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channel_io import write_channels
from .channels import generate_channels
from .errors import ConfigError, MimoError
from .harness import QN_ALGOS, ScenarioConfig, export_report, export_trace, run_scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the harness reserves 2 for
    # per-cell failures, so usage problems become config errors instead.
    def error(self, message):
        raise ConfigError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    try:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if "-" in chunk[1:]:
                lo, hi = (int(x) for x in chunk.split("-", 1))
                if hi < lo:
                    raise ConfigError(f"range {chunk!r} in {text!r} is reversed")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(chunk))
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}: {exc}") from exc
    return tuple(out)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(chunk) for chunk in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="mimo-precode", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON scenario configuration file")
    common.add_argument("--seeds", type=str,
                        help="comma-separated seeds, ranges like 0-39 allowed")
    sweep = _Parser(add_help=False, parents=[common])
    sweep.add_argument("--susinr", type=str, help="comma-separated channel-quality points in dB")
    sweep.add_argument("--algos", type=str, help="comma-separated algorithm names")
    sweep.add_argument("--iters", type=int, help="maximum quasi-Newton iterations")
    sweep.add_argument("--tol-grad", type=float, help="gradient-norm termination tolerance")
    sweep.add_argument("--tol-change", type=float,
                       help="objective/step change termination tolerance")

    g = sub.add_parser("generate", parents=[common],
                       help="write synthetic channels to a binary file")
    g.add_argument("--out", type=Path, required=True, help="output channel file")
    for name, what, help in (("run", "report", "run a scenario sweep"),
                             ("trace", "trace", "dump one optimization trace")):
        p = sub.add_parser(name, parents=[sweep], help=help)
        p.add_argument("--out", type=Path, default=Path(f"{what}.csv"), help=f"{what} path")
        p.add_argument("--format", choices=("csv", "json"),
                       help=f"{what} format (default from suffix)")
    return parser


def _overlay(base, updates: dict):
    """updates laid over base, if base is a JSON object; any other base is
    returned as it is, for ScenarioConfig.from_dict to reject."""
    return {**base, **updates} if isinstance(base, dict) else base


def load_scenario(args) -> ScenarioConfig:
    """The config file's mapping with the flags laid over it (the optimizer
    flags over its "optimizer" mapping), validated once by from_dict."""
    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    given = {k: v for k, v in vars(args).items() if v is not None}  # generate has no sweep flags
    flags: dict = {}
    if "seeds" in given:
        flags["seeds"] = _parse_int_list(given["seeds"])
    if "susinr" in given:
        flags["susinr_grid_db"] = _parse_float_list(given["susinr"])
    if "algos" in given:
        flags["algorithms"] = tuple(a.strip() for a in given["algos"].split(","))
    optimizer = {k: given[flag] for k, flag in (("max_iters", "iters"), ("tol_grad", "tol_grad"),
                                                ("tol_change", "tol_change")) if flag in given}
    if optimizer and isinstance(raw, dict):
        flags["optimizer"] = _overlay(raw.get("optimizer", {}), optimizer)
    return ScenarioConfig.from_dict(_overlay(raw, flags))


def _check_out(path: Path) -> None:
    """Reject an output in a missing directory, or one that is a directory,
    before any work is done."""
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: directory {path.parent} does not exist")
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _format_for(path: Path, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "json" if path.suffix.lower() == ".json" else "csv"


def _cmd_generate(args) -> int:
    cfg = load_scenario(args)
    out: Path = args.out
    paths = {seed: out if len(cfg.seeds) == 1 else
             out.with_name(f"{out.stem}_seed{seed}{out.suffix}") for seed in cfg.seeds}
    for path in (out, *paths.values()):
        _check_out(path)
    for seed, path in paths.items():
        write_channels(generate_channels(cfg.dims, seed, cfg.channel_model, cfg.rho), path)
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_scenario(args)
    _check_out(args.out)
    report = run_scenario(cfg)
    export_report(report, _format_for(args.out, args.format), args.out)
    n_fail = len(report.failures)
    print(f"wrote {args.out} ({len(report.rows)} rows, {n_fail} failed cells)")
    print(_mean_se_table(report))
    return 2 if n_fail else 0


def _mean_se_table(report) -> str:
    """RunReport.aggregates() as a table: one row per channel-quality point,
    one column per algorithm, "-" where every cell failed."""
    aggregates = report.aggregates()
    algos = list(dict.fromkeys(a["algorithm"] for a in aggregates))
    means = {(a["susinr_db"], a["algorithm"]): a["mean_se_irc_bits"] for a in aggregates}
    lines = ["mean SE-IRC over successful seeds (bit/s/Hz)",
             f"{'susinr':>8}" + "".join(f"{a:>14}" for a in algos)]
    for s in dict.fromkeys(a["susinr_db"] for a in aggregates):
        cells = ("-" if means[s, a] is None else f"{means[s, a]:.3f}" for a in algos)
        lines.append(f"{s:>8g}" + "".join(f"{c:>14}" for c in cells))
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    cfg = load_scenario(args)
    _check_out(args.out)
    qn = [a for a in cfg.algorithms if a in QN_ALGOS]
    if not qn:
        raise ConfigError(f"trace needs a quasi-Newton algorithm, got {cfg.algorithms}")
    trace = export_trace(cfg, qn[0], _format_for(args.out, args.format), args.out)
    print(f"wrote {args.out} ({qn[0]}, seed {cfg.seeds[0]}, {cfg.susinr_grid_db[0]} dB, "
          f"{trace.iterations} iterations, {trace.termination})")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (MimoError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
