"""Spans and counts at the public boundaries of each fredreg module.

The tracer wraps functions from the outside: it replaces each boundary in
every fredreg module namespace that binds it (``fredreg.harness`` imports
``synthesize_dataset`` by name, so that binding is replaced as well as the one
in ``fredreg.synthesis``), and methods on their class.  ``uninstall`` puts
every original back.  Spans (name, start, end, parent) are kept in memory and
reduced to per-layer metrics, or dumped, once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BOUNDARIES = {
    "harness": ("run_experiment", "summarize", "emit_outputs"),
    "cli": ("main",),
    "synthesis": (
        "synthesize_dataset", "evaluate_signal", "forward_coeffs", "add_noise", "write_coeffs_csv",
    ),
    "eigensystem": (
        "simpson_grid", "analytic_eigensystem", "sample_kernel_matrix", "numeric_eigensystem",
        "EigenSystem.basis_matrix", "project_all", "reconstruct",
    ),
    "variational": (
        "tikhonov_full", "truncated_k_alpha", "tikhonov_identity", "truncated_k_beta",
        "best_linear_estimate", "RegularizedSolution.to_grid",
    ),
    "spectral": ("cumulative_profile", "f0_approximation", "CumulativeProfile.write_csv"),
    "selection": (
        "build_selection", "autocorr_estimate", "detect_n0", "build_Q", "select_pairs",
        "reconstruct_bhat", "SelectionReport.write_autocorr_csv",
    ),
}
# Called thousands of times per seed: counted, not timed, since a span would distort it.
COUNTED = {"selection": ("bartlett_stderr",)}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _count_basis_rows(counts, args, kwargs, result):
    counts["eigensystem.basis_matrix.rows"] += len(result)


def _count_reconstruct_terms(counts, args, kwargs, result):
    coeffs = args[0] if args else kwargs["coeffs"]
    counts["eigensystem.reconstruct.terms"] += len(coeffs)


def _count_scanned_lags(counts, args, kwargs, result):
    # lags 0..max_lag are all the selection reads; autocorr_estimate computes all N
    counts["selection.autocorr.useful_lags"] += result.max_lag + 1
    counts["selection.autocorr.lags"] += result.series.n_count


def _count_emitted(counts, args, kwargs, result):
    counts["harness.emit_outputs.files"] += len(result)
    counts["harness.emit_outputs.bytes"] += sum(Path(p).stat().st_size for p in result)


HOOKS = {
    "eigensystem.basis_matrix": _count_basis_rows,
    "eigensystem.reconstruct": _count_reconstruct_terms,
    "selection.build_selection": _count_scanned_lags,
    "harness.emit_outputs": _count_emitted,
}


def _fredreg_namespaces() -> list:
    return [m for name, m in sys.modules.items() if name == "fredreg" or name.startswith("fredreg.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, name, fn):
        spans, stack, counts, hook = self.spans, self._stack, self.counts, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        self.missing = []
        for table, make in ((BOUNDARIES, self._timed), (COUNTED, self._counted)):
            for module, attrs in table.items():
                mod = importlib.import_module(f"fredreg.{module}")
                for attr in attrs:
                    self._patch(mod, attr, functools.partial(make, span_name(module, attr)))

    def _patch(self, mod, attr: str, wrap) -> None:
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                return
            self._restore.append((owner, fn_name, original))
            setattr(owner, fn_name, wrap(original))
            return
        original = getattr(mod, fn_name, None)
        if original is None:
            self.missing.append(f"{mod.__name__}.{attr}")
            return
        wrapped = wrap(original)
        for ns in _fredreg_namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, key, original))
                    setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds); self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {span_name(m, a): (0, 0.0, 0.0) for m, attrs in BOUNDARIES.items() for a in attrs}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out[name]
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return out

    def metrics(self, records: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalised per record: name -> (value, unit)."""
        out = {}
        for name, (calls, total, own) in self.layer_times().items():
            out[f"{name}.calls"] = (calls / records, "count/record")
            out[f"{name}.total_ms"] = (total * 1e3 / records, "ms/record")
            out[f"{name}.self_ms"] = (own * 1e3 / records, "ms/record")
        c = self.counts
        for module, attrs in COUNTED.items():
            for attr in attrs:
                key = f"{span_name(module, attr)}.calls"
                out[key] = (c[key] / records, "count/record")
        out["eigensystem.basis_matrix.rows"] = (c["eigensystem.basis_matrix.rows"] / records, "count/record")
        out["eigensystem.reconstruct.terms"] = (c["eigensystem.reconstruct.terms"] / records, "count/record")
        lags = c["selection.autocorr.lags"]
        out["selection.autocorr.useful_lag_frac"] = (
            c["selection.autocorr.useful_lags"] / lags if lags else 0.0, "ratio",
        )
        out["harness.emit_outputs.bytes"] = (c["harness.emit_outputs.bytes"] / records, "B/record")
        out["harness.emit_outputs.files"] = (c["harness.emit_outputs.files"] / records, "count/record")
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))
