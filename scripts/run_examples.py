#!/usr/bin/env python3
"""Run the four reference experiments and emit their figure data.

Each preset gets a Monte-Carlo batch through `fredreg run`; per-seed CSVs
(autocorrelation with confidence limits, cumulative profile M(m),
reconstructions) land under <out>/<preset>/ and are directly plottable.

Usage: python scripts/run_examples.py [--seeds 100] [--out results]
"""

import argparse
from pathlib import Path

from fredreg.cli import main as fredreg_main
from fredreg.harness import PRESETS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    for name in PRESETS:
        fredreg_main([
            "run", "--preset", name, "--seeds", str(args.seeds),
            "--base-seed", str(args.base_seed), "--out", str(Path(args.out) / name),
        ])
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
