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
The tests keep the explicit enumeration of the pairs as the reference.
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
    "summarize",
    "open_text",
    "read_counts",
    "write_summary",
    "write_tsv",
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


def summarize(data: ReplicateData) -> FoldChangeSummary:
    """Log-fold change and bootstrap SD for every gene, input order kept."""
    beta = np.log2(data.ko.mean(axis=1) / data.wt.mean(axis=1))
    return FoldChangeSummary(data.ids, beta, _bootstrap_sds(data.ko, data.wt))


def open_text(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


def _read_tsv(path) -> tuple[list, list]:
    """A nonempty TSV's lines and its header cells, which name no column twice.

    Lines end at LF alone (open_text reads CRLF and CR as LF), not at the
    other breaks of str.splitlines, such as \\f, \\x1e or \\x85, that a cell
    may hold.
    """
    with open_text(path) as fh:
        text = fh.read()
    if not text:
        raise ValueError(f"{path}: empty file")
    lines = text.split("\n")
    header = lines[0].split("\t")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"{path}: header names column {name!r} twice")
    return lines, header


def _bulk_rows(lines, n_fields: int, id_col: int, value_cols, positive=False):
    """(ids, values) of a table's nonblank data lines, parsed in one pass.

    values has one row per line and one column per value_cols entry.
    Returns None when any line might be rejected: a wrong tab count, a cell
    that np.loadtxt does not parse, a value that is not finite (or, when
    positive, not above 0) or a repeated id.  The per-line loop _line_rows
    then finds the first bad line and names it; it is the authority on what
    is accepted.  loadtxt parses a subset of what float() parses, to the
    same double, except that it strips the separators \\x1c-\\x1f that float()
    rejects, so a table holding one goes to the per-line loop too.
    """
    rows = [line for line in lines[1:] if line]
    if not rows or any(line.count("\t") != n_fields - 1 for line in rows):
        return None
    text = "\n".join(rows)
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        values = np.loadtxt(rows, delimiter="\t", usecols=value_cols, comments=None, ndmin=2)
    except ValueError:
        return None
    ok = (values > 0.0) & (values < np.inf) if positive else np.isfinite(values)
    ids = [line.split("\t", id_col + 1)[id_col] for line in rows]
    if values.shape[0] != len(rows) or not ok.all() or len(set(ids)) != len(ids):
        return None
    return ids, values


def _line_rows(path, lines, id_col: int, value_cols, positive=False):
    """_bulk_rows' table parsed line by line with float(): (ids, values), or
    the error of the first bad line, naming it and the header column of its
    first bad cell."""
    header = lines[0].split("\t")
    ids, rows, seen = [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        where = f"{path}: line {lineno}"
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{where}: expected {len(header)} columns, got {len(parts)}")
        values = []
        for col in value_cols:
            try:
                x = float(parts[col])
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric {header[col]}: {exc}") from None
            if not math.isfinite(x):
                raise ValueError(f"{where}: non-finite {header[col]}")
            if positive and x <= 0.0:
                raise ValueError(f"{where}: {header[col]} must be positive")
            values.append(x)
        if parts[id_col] in seen:
            raise ValueError(f"{where}: duplicate {header[id_col]} {parts[id_col]!r}")
        seen.add(parts[id_col])
        ids.append(parts[id_col])
        rows.append(values)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    return ids, np.array(rows)


def _table_rows(path, lines, id_col: int, value_cols, positive=False):
    """(ids, values) of a table's data lines: the bulk parse when it takes
    every line, else the per-line one."""
    return (_bulk_rows(lines, lines[0].count("\t") + 1, id_col, value_cols, positive)
            or _line_rows(path, lines, id_col, value_cols, positive))


def read_counts(path) -> ReplicateData:
    """Read a TSV with header gene_id, ko_1..ko_r, wt_1..wt_r.

    Accepts gzip input by extension and both LF and CRLF line endings;
    rejects a malformed row naming its line and the column of its first bad
    cell, and a header naming a column twice.
    """
    lines, header = _read_tsv(path)
    if header[0] != "gene_id":
        raise ValueError(f"{path}: first column must be gene_id, got {header[0]!r}")
    ko_cols = [c for c in header[1:] if c.startswith("ko_")]
    wt_cols = [c for c in header[1:] if c.startswith("wt_")]
    r = len(ko_cols)
    if r < 1 or len(wt_cols) != r or header[1:] != ko_cols + wt_cols:
        raise ValueError(f"{path}: header must be gene_id, ko_1..ko_r, wt_1..wt_r")
    ids, values = _table_rows(path, lines, 0, range(1, 1 + 2 * r), positive=True)
    return ReplicateData(tuple(ids), np.ascontiguousarray(values[:, :r]),
                         np.ascontiguousarray(values[:, r:]))


def write_tsv(path, columns, lines, seed=None) -> None:
    """Write a table: a '# seed: N' line when seed is given, the header of
    column names, then one preformatted, tab-separated line per row, each
    ending in LF.  Gzip output by extension, as open_text."""
    with open_text(path, "wt") as fh:
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        fh.write("\n".join(["\t".join(columns), *lines, ""]))


def write_summary(summary: FoldChangeSummary, path) -> None:
    rows = zip(summary.ids, summary.beta_hat.tolist(), summary.sd_boot.tolist())
    write_tsv(path, ("gene_id", "beta_hat", "sd_boot"),
              (f"{gid}\t{beta!r}\t{sd!r}" for gid, beta, sd in rows))


def read_hypotheses(path) -> tuple[list, np.ndarray, np.ndarray]:
    """Read a hypothesis TSV: (ids, beta_hat, aux), one entry per data row.

    The header names an id column (gene_id or id), beta_hat and an
    auxiliary column (y or sd_boot), so ``write_summary`` output reads
    back as is.  Gzip input is accepted by extension.  Malformed rows,
    non-finite values and repeated ids are rejected with the path, the line
    and the column, as is a header naming a column twice.
    """
    lines, header = _read_tsv(path)
    cols = {name: i for i, name in enumerate(header)}
    id_col = next((cols[c] for c in ("gene_id", "id") if c in cols), None)
    aux_col = next((cols[c] for c in ("y", "sd_boot") if c in cols), None)
    if id_col is None or "beta_hat" not in cols or aux_col is None:
        raise ValueError(f"{path}: need columns gene_id/id, beta_hat and y/sd_boot")
    ids, values = _table_rows(path, lines, id_col, (cols["beta_hat"], aux_col))
    beta, aux = np.ascontiguousarray(values.T)
    return ids, beta, aux
