"""Replicate count ingestion, log-fold changes and the exhaustive
bootstrap of their standard deviation.

With r replicates per condition the bootstrap takes all r^r
with-replacement resamples of each condition (729 = 27 x 27 resample
pairs for triplicates) instead of drawing randomly, so the auxiliary
statistic is deterministic.

The SD needs no enumeration of the pairs.  A pair's log-fold change is
log2 a_i - log2 b_j, where a_i runs over the KO resample means and b_j
over the WT ones, and the pairs form the full product: every (i, j)
appears exactly once.  The population variance of a difference over a
full product is the sum of the two population variances, so the sample
variance over the n = (r^r)^2 pairs is exactly

    n / (n - 1) * (Var(log2 a) + Var(log2 b)),

two r^r-point variances per gene, computed here for all genes at once.
``bootstrap_logfolds`` keeps the explicit enumeration as the reference.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReplicateData",
    "FoldChangeSummary",
    "MAX_BOOTSTRAP_COMBINATIONS",
    "logfold",
    "bootstrap_logfolds",
    "bootstrap_sd",
    "summarize",
    "open_text",
    "read_counts",
    "write_summary",
    "read_hypotheses",
]

MAX_BOOTSTRAP_COMBINATIONS = 1_000_000
# Genes per block of the vectorised bootstrap SD: bounds the (block, r^r, r)
# gather of resample values to a few MB whatever the gene count.
BOOTSTRAP_BLOCK_GENES = 2048


@dataclass(frozen=True)
class ReplicateData:
    """Per-gene weighted counts under knockout and wildtype conditions."""

    ids: tuple
    ko: np.ndarray  # shape (n_genes, r)
    wt: np.ndarray  # shape (n_genes, r)

    def __post_init__(self):
        ko = np.asarray(self.ko, dtype=float)
        wt = np.asarray(self.wt, dtype=float)
        ids = tuple(str(i) for i in self.ids)
        if ko.ndim != 2 or wt.shape != ko.shape or ko.shape[0] != len(ids):
            raise ValueError("ko and wt must be (n_genes, r) arrays matching ids")
        if len(set(ids)) != len(ids):
            raise ValueError("gene ids must be unique")
        if not (np.all(np.isfinite(ko)) and np.all(np.isfinite(wt))):
            raise ValueError("counts must be finite")
        if np.any(ko <= 0.0) or np.any(wt <= 0.0):
            raise ValueError("counts must be positive")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "ko", ko)
        object.__setattr__(self, "wt", wt)

    @property
    def n_genes(self) -> int:
        return len(self.ids)

    @property
    def r(self) -> int:
        return self.ko.shape[1]


@dataclass(frozen=True)
class FoldChangeSummary:
    """Per-gene log-fold change and its bootstrap standard deviation."""

    ids: tuple
    beta_hat: np.ndarray
    sd_boot: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        beta = np.asarray(self.beta_hat, dtype=float)
        sd = np.asarray(self.sd_boot, dtype=float)
        if beta.shape != (len(ids),) or sd.shape != (len(ids),):
            raise ValueError("beta_hat and sd_boot must match ids in length")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta_hat values must be finite")
        if not np.all((sd >= 0.0) & (sd < np.inf)):  # NaN fails too
            raise ValueError("sd_boot values must be finite and nonnegative")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "sd_boot", sd)


def logfold(ko, wt) -> float:
    """log2 of the ratio of condition means, knockout over wildtype."""
    ko_mean = float(np.mean(ko))
    wt_mean = float(np.mean(wt))
    if ko_mean <= 0.0 or wt_mean <= 0.0:
        raise ValueError("condition means must be positive")
    return float(np.log2(ko_mean / wt_mean))


def _resample_index(r: int) -> np.ndarray:
    """Index tuples of all r^r with-replacement resamples, in odometer order."""
    return np.array(list(itertools.product(range(r), repeat=r)), dtype=int).reshape(-1, r)


def _combination_count(r: int) -> int:
    """(r^r)^2 bootstrap pairs; raises when enumeration is infeasible."""
    if r < 1:
        raise ValueError("need at least one replicate per condition")
    n_comb = (r ** r) ** 2
    if n_comb > MAX_BOOTSTRAP_COMBINATIONS:
        raise ValueError(
            f"{r} replicates need {n_comb} bootstrap combinations "
            f"(cap {MAX_BOOTSTRAP_COMBINATIONS}); exhaustive enumeration not feasible")
    return n_comb


def _one_gene(ko, wt) -> tuple[np.ndarray, np.ndarray, int]:
    """Checked 1-d replicate arrays of one gene and its combination count."""
    ko = np.asarray(ko, dtype=float)
    wt = np.asarray(wt, dtype=float)
    if ko.size != wt.size:
        raise ValueError("conditions must have the same replicate count")
    n_comb = _combination_count(ko.size)
    if np.any(ko <= 0.0) or np.any(wt <= 0.0):
        raise ValueError("counts must be positive")
    return ko, wt, n_comb


def bootstrap_logfolds(ko, wt) -> np.ndarray:
    """All r^r x r^r bootstrap log-fold changes (KO resamples outer)."""
    ko, wt, _ = _one_gene(ko, wt)
    idx = _resample_index(ko.size)
    ko_means = ko[idx].mean(axis=1)
    wt_means = wt[idx].mean(axis=1)
    return np.log2(ko_means[:, None] / wt_means[None, :]).ravel()


def _row_variances(x: np.ndarray) -> np.ndarray:
    """Population variance of each row, summed column by column.

    numpy's axis reductions change summation order with the array shape (a
    single row is summed pairwise), so they could give equal rows different
    last bits in blocks of different sizes; a fixed order cannot.
    """
    n = x.shape[1]
    dev = x - (functools.reduce(np.add, x.T) / n)[:, None]
    return functools.reduce(np.add, (dev * dev).T) / n


def _bootstrap_sds(ko: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Sample SD of each row's exhaustive bootstrap log-folds, in closed form.

    ko and wt are (n_genes, r) positive arrays.  Rows constant in both
    conditions get exactly 0.0: their pairs are all equal, but the float
    variance of equal resample means need not be 0 (and for r = 1 the
    n / (n - 1) factor is undefined).
    """
    n_genes, r = ko.shape
    n = _combination_count(r)
    scale = n / (n - 1) if n > 1 else 0.0  # r = 1: every row is constant
    idx = _resample_index(r)
    sd = np.empty(n_genes)
    for start in range(0, n_genes, BOOTSTRAP_BLOCK_GENES):
        rows = slice(start, start + BOOTSTRAP_BLOCK_GENES)
        var = (_row_variances(np.log2(ko[rows][:, idx].mean(axis=2)))
               + _row_variances(np.log2(wt[rows][:, idx].mean(axis=2))))
        sd[rows] = np.sqrt(scale * var)
    constant = np.all(ko == ko[:, :1], axis=1) & np.all(wt == wt[:, :1], axis=1)
    sd[constant] = 0.0
    return sd


def bootstrap_sd(ko, wt) -> tuple[float, int]:
    """Sample SD (denominator n-1) of the exhaustive bootstrap log-folds.

    Returns (sd, combination_count); the count is 729 for triplicates.
    """
    ko, wt, n_comb = _one_gene(ko, wt)
    return float(_bootstrap_sds(ko.reshape(1, -1), wt.reshape(1, -1))[0]), n_comb


def summarize(data: ReplicateData) -> FoldChangeSummary:
    """Log-fold change and bootstrap SD for every gene, input order kept."""
    beta = np.log2(data.ko.mean(axis=1) / data.wt.mean(axis=1))
    return FoldChangeSummary(data.ids, beta, _bootstrap_sds(data.ko, data.wt))


def open_text(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


def read_counts(path) -> ReplicateData:
    """Read a TSV with header gene_id, ko_1..ko_r, wt_1..wt_r.

    Accepts gzip input by extension and both LF and CRLF line endings;
    rejects malformed rows with the offending line number.
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split("\t")
    if header[0] != "gene_id":
        raise ValueError(f"{path}: first column must be gene_id, got {header[0]!r}")
    ko_cols = [c for c in header[1:] if c.startswith("ko_")]
    wt_cols = [c for c in header[1:] if c.startswith("wt_")]
    r = len(ko_cols)
    if r < 1 or len(wt_cols) != r or header[1:] != ko_cols + wt_cols:
        raise ValueError(f"{path}: header must be gene_id, ko_1..ko_r, wt_1..wt_r")
    ids, ko_rows, wt_rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 1 + 2 * r:
            raise ValueError(f"{path}: line {lineno}: expected {1 + 2 * r} columns, "
                             f"got {len(parts)}")
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric count") from None
        if not all(0.0 < x < math.inf for x in values):  # NaN fails too
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {lineno}: non-finite count")
            raise ValueError(f"{path}: line {lineno}: counts must be positive")
        ids.append(parts[0])
        ko_rows.append(values[:r])
        wt_rows.append(values[r:])
    if not ids:
        raise ValueError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate gene ids")
    return ReplicateData(tuple(ids), np.array(ko_rows), np.array(wt_rows))


def write_summary(summary: FoldChangeSummary, path) -> None:
    with open_text(path, "wt") as fh:
        fh.write("gene_id\tbeta_hat\tsd_boot\n")
        for i, gid in enumerate(summary.ids):
            fh.write(f"{gid}\t{float(summary.beta_hat[i])!r}\t{float(summary.sd_boot[i])!r}\n")


def read_hypotheses(path) -> tuple[list, np.ndarray, np.ndarray]:
    """Read a hypothesis TSV: (ids, beta_hat, aux), one entry per data row.

    The header names an id column (gene_id or id), beta_hat and an
    auxiliary column (y or sd_boot), so ``write_summary`` output reads
    back as is.  Gzip input is accepted by extension.  Malformed rows,
    non-finite values and repeated ids are rejected with the path and line
    number.
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split("\t")
    cols = {name: i for i, name in enumerate(header)}
    id_col = next((cols[c] for c in ("gene_id", "id") if c in cols), None)
    aux_col = next((cols[c] for c in ("y", "sd_boot") if c in cols), None)
    if id_col is None or "beta_hat" not in cols or aux_col is None:
        raise ValueError(f"{path}: need columns gene_id/id, beta_hat and y/sd_boot")
    beta_col = cols["beta_hat"]
    ids, beta, aux, seen = [], [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected {len(header)} columns")
        try:
            b, a = float(parts[beta_col]), float(parts[aux_col])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not (math.isfinite(b) and math.isfinite(a)):
            raise ValueError(f"{path}: line {lineno}: non-finite {header[beta_col]} "
                             f"or {header[aux_col]}")
        beta.append(b)
        aux.append(a)
        hid = parts[id_col]
        if hid in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {hid!r}")
        seen.add(hid)
        ids.append(hid)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    return ids, np.array(beta), np.array(aux)
