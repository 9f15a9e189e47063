#!/usr/bin/env python3
"""Noise-vanishing evidence: every method of every preset over a ladder of eps.

The paper claims that truncation converges in L2 as the noise vanishes and
that the selection overcomes limits of the variational cutoffs.  For each
preset this runs all methods through run_experiment at eps_preset * 10^(j/2)
for j in --rungs (default -4..2), --seeds seeds each, in one process, so the
rungs of a preset share its tables (the harness keeps the last signal's
tables between calls).  Per preset and rung it records the median and IQR of
rel_l2 per method, the median of each cutoff with the fraction of seeds whose
cutoff sits at n_max, and the exact-support fraction of the selection.  Per
preset and method it fits the slope of log10(median rel_l2) against
log10(eps), leaving out the rungs where the method's median cutoff is n_max:
there the cap, not the method, sets the error.

Usage: PYTHONPATH=src python scripts/noise_sweep.py [--seeds 100]
           [--presets example1 ...] [--out evidence/noise_sweep.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

import fredreg as fr
from fredreg.harness import PRESETS, preset

HERE = Path(__file__).resolve().parent.parent
RUNGS = tuple(range(-4, 3))
CUTOFF_OF = {"k_alpha": "k_alpha", "k_beta": "k_beta", "f0": "k0"}  # method -> the cutoff it reports


def rung(name: str, j: int, seeds: int) -> dict:
    """One preset at eps_preset * 10^(j/2): error, cutoff and support statistics over the seeds."""
    cfg = preset(name, seeds=range(seeds))
    cfg = dataclasses.replace(cfg, epsilon=cfg.epsilon * 10 ** (j / 2))
    records = fr.run_experiment(cfg)
    summary = fr.summarize(records, true_support=cfg.signal.support())
    out = {
        "epsilon": cfg.epsilon,
        "snr_db": summary["snr_db"],
        "rel_l2": {m: {k: s[k] for k in ("median", "q25", "q75")} for m, s in summary["methods"].items()},
        "cutoffs": {
            attr: {
                "median": s["median"],
                "at_n_max": sum(getattr(r, attr) == cfg.n_max for r in records) / s["n"],
            }
            for attr, s in summary.get("cutoffs", {}).items()
        },
    }
    out["exact_support_fraction"] = summary.get("selection", {}).get("exact_support_fraction")
    return out


def slopes(n_max: int, rungs: dict[int, dict]) -> dict:
    """Per method, the least-squares log-log slope of median rel_l2 over its uncapped rungs."""
    out = {}
    for method in next(iter(rungs.values()))["rel_l2"]:
        attr = CUTOFF_OF.get(method)
        fit = [
            j for j, r in rungs.items()
            if attr is None or r["cutoffs"][attr]["median"] < n_max
        ]
        x = [np.log10(rungs[j]["epsilon"]) for j in fit]
        y = [np.log10(rungs[j]["rel_l2"][method]["median"]) for j in fit]
        slope = float(np.polyfit(x, y, 1)[0]) if len(fit) >= 2 else None
        out[method] = {"slope": slope, "fit_rungs": fit}
    return out


def sweep(names=PRESETS, seeds: int = 100, rungs=RUNGS) -> dict:
    """The evidence of scripts/noise_sweep.py for the given presets, seeds and rungs."""
    presets = {}
    for name in names:
        n_max = preset(name).n_max
        by_rung = {j: rung(name, j, seeds) for j in rungs}
        presets[name] = {
            "n_max": n_max,
            "rungs": {str(j): r for j, r in by_rung.items()},
            "slopes": slopes(n_max, by_rung),
        }
    return {"seeds": seeds, "eps_factor": "10^(j/2)", "presets": presets}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--presets", nargs="+", default=list(PRESETS), choices=PRESETS)
    ap.add_argument("--rungs", type=int, nargs="+", default=list(RUNGS))
    ap.add_argument("--out", default=str(HERE / "evidence" / "noise_sweep.json"))
    args = ap.parse_args()

    evidence = sweep(args.presets, args.seeds, args.rungs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(evidence, indent=1) + "\n")
    for name, p in evidence["presets"].items():
        print(f"{name}: log-log slope of median rel_l2 vs eps (rungs fitted)")
        for method, s in p["slopes"].items():
            slope = "n/a" if s["slope"] is None else f"{s['slope']:+.3f}"
            print(f"  {method:>18} {slope:>7}  {s['fit_rungs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
