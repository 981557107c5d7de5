"""Check a job's CSV against the reference stored for it.

Rules, per cell class:

- The schema line, the header, the set of row keys, and every
  non-numeric cell (branch tags, empty cells, `inf`, `nan`) must be
  identical; integer columns must be equal.
- Covariance cells (`sigma_ij`, `analytic_sigma`) may differ by
  COV_REL * sqrt(sigma_ii * sigma_jj). Each f value is accurate to 1e-8
  relative, so each entry of sum_k W_ik W_jk f_k is accurate to
  1e-8 * sqrt(sigma_ii sigma_jj) by Cauchy-Schwarz, and two results
  that both meet that accuracy differ by at most twice as much.
- Risk cells may differ by risk_rel * (|ref| + c), and conditional
  moments by risk_rel * |ref|, with the job's own risk_rel
  (workloads.py). A risk is d / D - c, so its error is relative to
  d / D = risk + c, not to the risk, which can be near zero.
- Spectral columns of `stability` may differ by 1e-9 * max(1, |ref|),
  and `inf_fraction` by 1e-12.
- The `simulate` empirical columns depend on the seed; only its
  `max_abs_z` trailer is checked, against MAX_ABS_Z.
"""
from __future__ import annotations

import math

COV_REL = 2e-8
SPECTRAL_ABS = 1e-9
RATIO_ABS = 1e-12
MAX_ABS_Z = 4.0

_RULES = {
    "stability": {"k": "key", "lambda": "spectral", "s1": "spectral",
                  "s2": "spectral", "bound": "spectral",
                  "margin": "spectral"},
    "covariance": {"i": "key", "j": "key", "sigma_ij": "cov"},
    "risk_profile": {"j": "key", "risk": "risk", "branch": "exact",
                     "mu_tilde": "moment", "sigma_tilde": "moment",
                     "is_failed": "exact", "naive_risk": "risk"},
    "simulate": {"i": "key", "j": "key", "analytic_sigma": "cov",
                 "empirical_sigma": "seeded", "se": "seeded",
                 "z_score": "seeded"},
    "sweep_scale": {"m": "key", "j": "key", "risk": "risk"},
    "sweep_sparsity": {"s": "key", "avg_risk": "risk",
                       "inf_fraction": "ratio", "n_patterns": "exact",
                       "exact": "exact"},
    "add_edge": {"target": "key", "risk": "risk", "stable": "exact"},
}


class Table:
    """A parsed versioned CSV: schema name, header, rows by key, trailers."""

    def __init__(self, text: str):
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# schema="):
            raise ValueError("missing schema line or header")
        self.schema_line = lines[0]
        self.schema = lines[0][len("# schema="):].split("/")[0]
        if self.schema not in _RULES:
            raise ValueError(f"unknown schema {self.schema!r}")
        self.header = lines[1].split(",")
        rules = _RULES[self.schema]
        if list(rules) != self.header:
            raise ValueError(f"header {lines[1]!r} does not match the "
                             f"{self.schema} schema")
        key_cols = [k for k, col in enumerate(self.header)
                    if rules[col] == "key"]
        self.rows = {}
        self.trailers = {}
        self.duplicates = 0
        for line in lines[2:]:
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                self.trailers[key] = value
                continue
            cells = line.split(",")
            if len(cells) != len(self.header):
                raise ValueError(f"row {line!r} has {len(cells)} cells")
            key = tuple(cells[k] for k in key_cols)
            self.duplicates += key in self.rows
            self.rows[key] = cells

    def diagonal(self, column: str) -> dict:
        """Covariance diagonal by index, for the (i, j)-keyed schemas."""
        k = self.header.index(column)
        return {i: float(cells[k]) for (i, j), cells in self.rows.items()
                if i == j}


def _number(token: str):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _scale(rule: str, value: float, c: float, diag_product: float) -> float:
    if rule == "cov":
        return math.sqrt(diag_product)
    if rule == "risk":
        return abs(value) + c
    if rule == "moment":
        return abs(value)
    if rule == "spectral":
        return max(1.0, abs(value))
    return 1.0


def differences(actual: Table, ref: Table, c: float):
    """Yield (column, key, got, want, rule, |got - want|, scale) for each
    compared cell whose text differs; difference and scale are None when
    the cell must match exactly. Assumes equal row keys."""
    rules = _RULES[ref.schema]
    diag = {col: ref.diagonal(col) for col in ref.header
            if rules[col] == "cov"}
    for key, ref_cells in ref.rows.items():
        for col, got, want in zip(ref.header, actual.rows[key], ref_cells):
            rule = rules[col]
            if rule in ("key", "seeded") or got == want:
                continue
            a, b = _number(got), _number(want)
            if rule == "exact" or a is None or b is None:
                yield col, key, got, want, rule, None, None
                continue
            product = diag[col][key[0]] * diag[col][key[1]] \
                if rule == "cov" else 0.0
            yield col, key, got, want, rule, abs(a - b), \
                _scale(rule, b, c, product)


def compare(actual_text: str, reference_text: str, c: float,
            risk_rel: float) -> list:
    """Problems found in actual_text; empty when it passes."""
    try:
        actual = Table(actual_text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    ref = Table(reference_text)
    if actual.schema_line != ref.schema_line:
        return [f"schema {actual.schema_line!r} != {ref.schema_line!r}"]
    problems = []
    if actual.duplicates:
        problems.append(f"{actual.duplicates} duplicate row keys")
    if actual.rows.keys() != ref.rows.keys():
        extra = len(actual.rows.keys() - ref.rows.keys())
        lost = len(ref.rows.keys() - actual.rows.keys())
        return problems + [f"row set differs: {extra} extra, {lost} missing"]
    factor = {"cov": COV_REL, "risk": risk_rel, "moment": risk_rel,
              "spectral": SPECTRAL_ABS, "ratio": RATIO_ABS}
    for col, key, got, want, rule, diff, scale in \
            differences(actual, ref, c):
        if diff is None:
            problems.append(f"{col} at {key}: {got!r} != {want!r}")
        elif not diff <= factor[rule] * scale:
            problems.append(f"{col} at {key}: {got} differs from {want} "
                            f"by more than {factor[rule] * scale:.3g}")
        if len(problems) > 20:
            break
    problems += _check_trailers(actual.trailers, ref.trailers)
    return problems


def _check_trailers(actual: dict, ref: dict) -> list:
    if actual.keys() != ref.keys():
        return [f"trailers {sorted(actual)} != {sorted(ref)}"]
    problems = []
    for key, want in ref.items():
        got = actual[key]
        if key == "max_abs_z":
            if not float(got) <= MAX_ABS_Z:
                problems.append(f"max_abs_z={got} exceeds {MAX_ABS_Z}")
        elif got != want:
            problems.append(f"trailer {key}={got} != {want}")
    return problems
