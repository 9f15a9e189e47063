"""Correctness gate for the benchmark workloads.

Two kinds of check:

* invariants, applied to every output of every seed: finite errors, no
  method failures, the selected set I_k equal to the members of one pair per
  significant lag in Q, the expected emitted file list and CSV shapes;
* reference outcomes, applied to the outputs that the default seed (0)
  produces first, compared with ``reference.json`` captured from the
  unchanged program: selection outcomes and cutoffs exactly, errors and
  emitted CSV values within ``REL_TOL``, manifest file list and config hash
  exactly, null-control counts exactly, numeric eigenvalues within
  ``REL_TOL``.

Every check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
# Entries that are pure rounding noise (psi_k at x = 1, say) carry no relative
# precision; they are compared against this share of their column's largest
# magnitude instead.
COLUMN_ABS_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: str | Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def _close(got: float, want: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + abs_tol


def outcome(record: dict) -> dict:
    """Deterministic outcome of one seed from a ``RunRecord.to_json_dict()``."""
    sel = record.get("selection") or {}
    return {
        "seed": record["seed"],
        "n0": sel.get("n0"),
        "Q": sel.get("Q"),
        "I_k": sel.get("I_k"),
        "k_alpha": record.get("k_alpha"),
        "k_beta": record.get("k_beta"),
        "k0": record.get("k0"),
        "rel_l2": record["rel_l2"],
    }


def selection_errors(n0: int, Q: list, pairs: list, I_k: list) -> list[str]:
    """I_k must be exactly the members of one pair (a, a + q) per lag q in Q, 0 < q <= n0."""
    errors = []
    if any(not 0 < q <= n0 for q in Q):
        errors.append(f"Q={Q} not within 1..n0={n0}")
    if sorted(b - a for a, b in pairs) != sorted(Q):
        errors.append(f"pair lags {pairs} do not match Q={Q}")
    members = sorted({k for pair in pairs for k in pair})
    if list(I_k) != members:
        errors.append(f"I_k={I_k} is not the set of pair members {members}")
    return errors


def record_errors(record: dict, methods) -> list[str]:
    """Invariants of one seed's ``RunRecord.to_json_dict()``."""
    seed = record["seed"]
    errors = [f"seed {seed}: {name} failed: {msg}" for name, msg in record["failures"].items()]
    missing = sorted(set(methods) - set(record["rel_l2"]))
    if missing:
        errors.append(f"seed {seed}: no error for {missing}")
    bad = {m: v for m, v in record["rel_l2"].items() if not math.isfinite(v)}
    if bad:
        errors.append(f"seed {seed}: non-finite errors {bad}")
    sel = record.get("selection")
    if "bhat" in methods:
        if sel is None:
            errors.append(f"seed {seed}: no selection report")
        else:
            errors += [
                f"seed {seed}: {e}"
                for e in selection_errors(sel["n0"], sel["Q"], sel["pairs"], sel["I_k"])
            ]
    return errors


def compare_outcomes(got: dict, want: dict) -> list[str]:
    seed = want["seed"]
    errors = []
    for key in ("seed", "n0", "Q", "I_k", "k_alpha", "k_beta", "k0"):
        if got[key] != want[key]:
            errors.append(f"seed {seed}: {key}={got[key]} != reference {want[key]}")
    if sorted(got["rel_l2"]) != sorted(want["rel_l2"]):
        errors.append(f"seed {seed}: methods {sorted(got['rel_l2'])} != reference")
    for method, ref in want["rel_l2"].items():
        val = got["rel_l2"].get(method)
        if val is not None and not _close(val, ref):
            errors.append(f"seed {seed}: rel_l2[{method}]={val!r} != reference {ref!r}")
    return errors


def compare_values(
    got: list[float], want: list[float], what: str, floor: float = COLUMN_ABS_TOL
) -> list[str]:
    """Elementwise REL_TOL comparison; None marks an undefined (blank) entry.

    ``floor`` is the share of the largest reference magnitude that every
    entry may also differ by.
    """
    if len(got) != len(want):
        return [f"{what}: {len(got)} values != reference {len(want)}"]
    scale = floor * max((abs(v) for v in want if v is not None), default=0.0)
    for i, (a, b) in enumerate(zip(got, want)):
        if (a is None) != (b is None) or (b is not None and not _close(a, b, scale)):
            return [f"{what}[{i}]: {a!r} != reference {b!r}"]
    return []


def read_csv(path: Path, rows: int, columns: list[str]) -> tuple[list[str], list[list]]:
    """Parse an emitted CSV; blanks become None. Raises ValueError on any malformed entry."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = []
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(header):
                raise ValueError(f"{path.name}: row {len(table) + 1} has {len(fields)} fields")
            table.append([float(f) if f else None for f in fields])
    if header != columns:
        raise ValueError(f"{path.name}: header {header} != {columns}")
    if len(table) != rows:
        raise ValueError(f"{path.name}: {len(table)} rows, expected {rows}")
    if any(v is not None and not math.isfinite(v) for row in table for v in row):
        raise ValueError(f"{path.name}: non-finite value")
    return header, table


def value_columns(header: list[str], table: list[list]) -> dict[str, list]:
    """Computed columns of a CSV, without the index and abscissa columns."""
    return {
        name: [row[j] for row in table]
        for j, name in enumerate(header)
        if name not in ("k", "m", "n", "x")
    }


def empty_fraction_errors(empty: int, total: int, expected: float = 0.95, z: float = 5.0) -> list[str]:
    """Binomial bound: the observed share of empty selections on pure noise."""
    if total == 0:
        return ["no portmanteau null records were analysed"]
    frac = empty / total
    sigma = math.sqrt(expected * (1.0 - expected) / total)
    if abs(frac - expected) > z * sigma:
        return [
            f"portmanteau empty selections {empty}/{total} = {frac:.3f}, "
            f"outside {expected} +/- {z} sigma ({z * sigma:.3f})"
        ]
    return []
