#!/usr/bin/env python3
"""Fixed-seed evidence for the paper's claims: one study per run, one JSON file per study.

Each entry of STUDIES is a function of the seed count that returns the
study's document, whose first key is "seeds", with its default seed count.
The driver writes the document to evidence/<study>.json (or --out) as
json.dumps(doc, indent=1) and a newline, and tests/test_evidence.py
re-derives a named slice of each committed file exactly.

- noise_sweep (100 seeds): every method of every preset at
  eps_preset * 10^(j/2) for j in -4..2, in one process, so the rungs of a
  preset share its tables (the harness keeps the last signal's tables
  between calls).  Per preset and rung: the median and IQR of rel_l2 per
  method, the median of each cutoff with the fraction of seeds whose cutoff
  sits at n_max, and the exact-support fraction of the selection.  Per
  preset and method: the slope of log10(median rel_l2) against log10(eps),
  leaving out the rungs where the method's median cutoff is n_max, since
  there the cap, not the method, sets the error.
- null_control (200 seeds): the selection on pure-noise records (uniform
  on [-1e-4, 1e-4], N = 512), with the portmanteau randomness check (Ljung
  and Box 1978) and without it.  With no signal the selected set should be
  empty on about 95% of records, the confidence level of the threshold; the
  bare recursion walks to a spurious lag on most of them.  Per randomness
  test: the records with an empty selection and the mean |I_k|.
- dispersion (1 seed): which reading of the noise dispersion D_eps in the
  cutoff lam_k >= (D_eps / E) |c_k| lands on the reported k_alpha values
  (8, 9 and 27 for the first three examples): the uniform-noise standard
  deviation eps/sqrt(3), the package default, or the bound eps.  Per preset:
  E = ||f|| and k_alpha per seed under each reading.

Usage: PYTHONPATH=src python scripts/evidence.py STUDY [--seeds N] [--out FILE]
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
NULL_EPSILON, NULL_N = 1e-4, 512


def rung(name: str, j: int, seeds: int) -> dict:
    """One preset at eps_preset * 10^(j/2): error, cutoff and support statistics over the seeds."""
    cfg = preset(name, seeds=range(seeds))
    cfg = dataclasses.replace(cfg, epsilon=cfg.epsilon * 10 ** (j / 2))
    records = fr.run_experiment(cfg)
    summary = fr.summarize(records, true_support=cfg.signal.support())
    return {
        "epsilon": cfg.epsilon,
        "snr_db": summary["snr_db"],
        "rel_l2": {m: {k: s[k] for k in ("median", "q25", "q75")} for m, s in summary["methods"].items()},
        "cutoffs": {
            attr: {"median": s["median"], "at_n_max": sum(getattr(r, attr) == cfg.n_max for r in records) / s["n"]}
            for attr, s in summary.get("cutoffs", {}).items()
        },
        "exact_support_fraction": summary.get("selection", {}).get("exact_support_fraction"),
    }


def slopes(n_max: int, rungs: dict[int, dict]) -> dict:
    """Per method, the least-squares log-log slope of median rel_l2 over its uncapped rungs."""
    out = {}
    for method in next(iter(rungs.values()))["rel_l2"]:
        attr = CUTOFF_OF.get(method)
        fit = [j for j, r in rungs.items() if attr is None or r["cutoffs"][attr]["median"] < n_max]
        x = [np.log10(rungs[j]["epsilon"]) for j in fit]
        y = [np.log10(rungs[j]["rel_l2"][method]["median"]) for j in fit]
        slope = float(np.polyfit(x, y, 1)[0]) if len(fit) >= 2 else None
        out[method] = {"slope": slope, "fit_rungs": fit}
    return out


def noise_sweep(seeds: int, names=PRESETS, rungs=RUNGS) -> dict:
    """The noise sweep over the given presets and rungs; the study runs every preset and rung."""
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


def null_control(seeds: int) -> dict:
    """Empty selections and mean |I_k| on seeded pure-noise records, per randomness test."""
    sizes = {"portmanteau": [], "none": []}
    for seed in range(seeds):
        record = np.random.default_rng(seed).uniform(-NULL_EPSILON, NULL_EPSILON, NULL_N)
        for mode, found in sizes.items():
            found.append(len(fr.build_selection(record, randomness_test=mode).I_k))
    return {
        "seeds": seeds, "epsilon": NULL_EPSILON, "n_count": NULL_N,
        "randomness_test": {
            mode: {"empty": found.count(0), "mean_size": float(np.mean(found))} for mode, found in sizes.items()
        },
    }


def dispersion(seeds: int) -> dict:
    """Per preset, E = ||f|| and k_alpha on each seed with D_eps = eps/sqrt(3) and with D_eps = eps."""
    presets = {}
    for name in PRESETS:
        cfg = dataclasses.replace(preset(name, seeds=range(seeds)), methods=("k_alpha",))
        presets[name] = {"E": fr.run_context(cfg).f_norm, "k_alpha": {
            mode: [r.k_alpha for r in fr.run_experiment(dataclasses.replace(cfg, dispersion_mode=mode))]
            for mode in ("eps_over_sqrt3", "eps")
        }}
    return {"seeds": seeds, "presets": presets}


# study -> (the function of the seed count that returns its document, its default seed count)
STUDIES = {
    "noise_sweep": (noise_sweep, 100),
    "null_control": (null_control, 200),
    "dispersion": (dispersion, 1),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("study", choices=STUDIES)
    ap.add_argument("--seeds", type=int, help="seeds 0..N-1 (default: the study's own count)")
    ap.add_argument("--out", help="the file to write (default: evidence/<study>.json)")
    args = ap.parse_args(argv)
    study, seeds = STUDIES[args.study]
    if args.seeds is not None:
        if args.seeds < 1:
            ap.error(f"--seeds must be >= 1, got {args.seeds}")
        seeds = args.seeds
    out = Path(args.out or HERE / "evidence" / f"{args.study}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(study(seeds), indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
