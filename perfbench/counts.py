"""Seeded synthetic triplicate counts, calibrated to the built-in null.

Each gene has an expression level and a noise class.  Replicate counts are
the level times a mean-one gamma factor whose coefficient of variation is
set by the class.  With three replicates per condition the null log2 fold
change of a class is then close to normal with standard deviation
cv * sqrt(2/3) / ln 2, so the two classes reproduce the components of
``REAL_DATA_NULL``: 0.063 for quiet genes (61.5%) and 0.205 for noisy genes
(38.5%).  A further 5% of genes carry a real fold change.
"""

from __future__ import annotations

import numpy as np

QUIET_FRACTION = 0.615
QUIET_CV = 0.0535
NOISY_CV = 0.174
DE_FRACTION = 0.05
DE_LOG2_RANGE = (0.6, 2.0)
REPLICATES = 3


def generate_counts(n_genes: int, seed: int):
    """Return (ids, ko, wt, is_de); ko and wt are (n_genes, 3) positive arrays."""
    rng = np.random.default_rng([seed, n_genes])
    level = np.exp(rng.normal(5.0, 1.5, n_genes))
    cv = np.where(rng.random(n_genes) < QUIET_FRACTION, QUIET_CV, NOISY_CV)
    shape = (1.0 / cv**2)[:, None]
    is_de = rng.random(n_genes) < DE_FRACTION
    sign = np.where(rng.random(n_genes) < 0.5, -1.0, 1.0)
    lfc = np.where(is_de, sign * rng.uniform(*DE_LOG2_RANGE, n_genes), 0.0)
    size = (n_genes, REPLICATES)
    ko = level[:, None] * 2.0 ** lfc[:, None] * rng.gamma(shape, 1.0 / shape, size)
    wt = level[:, None] * rng.gamma(shape, 1.0 / shape, size)
    ids = [f"g{i + 1:06d}" for i in range(n_genes)]
    return ids, ko, wt, is_de


def write_counts_tsv(path, ids, ko, wt) -> int:
    """Write the bootstrap input TSV; returns the number of bytes written."""
    header = "\t".join(["gene_id"] + [f"ko_{j + 1}" for j in range(ko.shape[1])]
                       + [f"wt_{j + 1}" for j in range(wt.shape[1])])
    rows = np.hstack([ko, wt])
    lines = [header] + [gid + "\t" + "\t".join(f"{x:.6g}" for x in row)
                        for gid, row in zip(ids, rows)]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))
