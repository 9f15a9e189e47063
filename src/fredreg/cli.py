"""Command line interface.

  fredreg run --preset example1 --seeds 100 --out DIR
  fredreg run --config FILE
  fredreg analyze --in coeffs.csv --epsilon E [--out report.json]
  fredreg summarize DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    PRESETS,
    emit_outputs,
    preset,
    run_experiment,
    summarize,
)
from .eigensystem import EigenDecompositionError
from .selection import build_selection
from .synthesis import noise_dispersion, read_coeffs_csv


def _cmd_run(args) -> int:
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:  # its message names the line but not the file
            raise ValueError(f"{args.config}: not JSON: {exc}") from None
        cfg = ExperimentConfig.from_json_dict(payload)
        if args.out:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
    else:
        if not args.preset:
            raise ValueError("run needs --preset or --config")
        seeds = ExperimentConfig.seed_range(args.base_seed, args.seeds)
        cfg = preset(args.preset, seeds=seeds, output_dir=args.out)
    records = run_experiment(cfg)
    summary = summarize(records, true_support=cfg.signal.support())
    if cfg.output_dir:
        written = emit_outputs(records, summary, cfg)
        print(f"{cfg.name}: {len(records)} seeds -> {len(written)} files in {cfg.output_dir}")
    print_summary(cfg.name, summary)
    return 0


def _cmd_analyze(args) -> int:
    coeffs = read_coeffs_csv(args.infile)
    report = build_selection(
        coeffs, significance=args.significance, randomness_test=args.n0_test
    )
    payload = {
        "n_coeff": int(coeffs.size),
        "epsilon": args.epsilon,
        "noise_dispersion": noise_dispersion(args.epsilon),
        **report.to_json_dict(),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text)
        report.write_autocorr_csv(str(Path(args.out).with_suffix(".autocorr.csv")), coeffs)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_summarize(args) -> int:
    payload = json.loads((Path(args.dir) / "report.json").read_text())
    cfg = ExperimentConfig.from_json_dict(payload["config"])
    print_summary(cfg.name, summarize(payload["records"], true_support=cfg.signal.support()))
    return 0


def print_summary(name: str, summary: dict) -> None:
    snr = "n/a" if summary["snr_db"] is None else f"{summary['snr_db']:.2f} dB"
    print(f"== {name}: {summary['n_seeds']} seeds, SNR {snr}")
    print(f"{'method':>18}  {'median':>10}  {'q25':>10}  {'q75':>10}")
    for method, stats in sorted(summary["methods"].items()):
        print(
            f"{method:>18}  {stats['median']:>10.4f}  {stats['q25']:>10.4f}  {stats['q75']:>10.4f}"
        )
    sel = summary.get("selection")
    if sel:
        print(
            f"selection: modal I_k={sel['modal_I_k']} ({sel['modal_I_k_fraction']:.0%}), "
            f"modal n0={sel['modal_n0']} ({sel['modal_n0_fraction']:.0%})"
        )
        if "exact_support_fraction" in sel:
            print(
                f"exact support match {sel['exact_support_fraction']:.0%} "
                f"of seeds vs {sel['true_support']}"
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fredreg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or configured experiment batch")
    run.add_argument("--preset", choices=PRESETS)
    run.add_argument("--config", help="JSON file mirroring ExperimentConfig")
    run.add_argument("--seeds", type=int, default=1, help="number of seeds (with --preset)")
    run.add_argument("--base-seed", type=int, default=0)
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=_cmd_run)

    an = sub.add_parser("analyze", help="coefficient-selection analysis of a CSV record")
    an.add_argument("--in", dest="infile", required=True, help="CSV with header k,g_bar_k")
    an.add_argument("--epsilon", type=float, required=True, help="noise bound")
    an.add_argument("--significance", type=float, default=1.96)
    an.add_argument("--n0-test", choices=("portmanteau", "none"), default="portmanteau")
    an.add_argument("--out", help="write report JSON (plus .autocorr.csv) here")
    an.set_defaults(func=_cmd_analyze)

    sm = sub.add_parser("summarize", help="print the summary table for a run directory")
    sm.add_argument("dir")
    sm.set_defaults(func=_cmd_summarize)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with, built once per process (build_parser builds a new one per call)."""
    return build_parser()


# bad input: a file that cannot be read, a record (DegenerateSequenceError is a ValueError) or an argument out of
# its domain, a kernel without a reliable eigensystem; any other exception is a bug and keeps its traceback
_INPUT_ERRORS = (ValueError, IndexError, OSError, EigenDecompositionError)


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input prints `fredreg <command>: error: <message>` to stderr and returns 2.

    2 is argparse's status for a usage error.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"fredreg {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
