"""Seeded Criteo-shaped rows for the benchmark workloads.

The rows imitate the Kaggle Criteo schema: 13 dense count fields and 26
categorical fields, with some values missing. Category ids within a field
follow a power law (rank r drawn with probability proportional to
r ** -ZIPF_ALPHA), so a few ids are very common and most are rare, as in the
real data. Labels come from a planted logistic score over the dense values
and one effect per (field, id).

Only BASE_LOGIT is set from a figure about the real data: it gives a
positive rate of about 0.26, the rate commonly reported for the Kaggle
Criteo training set (this benchmark did not check the figure against the
data).
ZIPF_ALPHA, the missing shares and the effect scales are assumptions, the
same for every field; no per-field statistics of the real data were used.
The input properties a run records depend on them: the share of unique
(field, id) pairs per batch on ZIPF_ALPHA, SPARSE_MISSING and the batch
size, and the OOV share after min_freq on ZIPF_ALPHA, SPARSE_MISSING and
the length of the ingested file. A claim that cites those properties
inherits these assumptions.

The planted task (effects, dense weights) is drawn from TASK_SEED; the
workload seed draws only the rows. Rows for different seeds therefore come
from the same task, as `SynthSpec` does for the synthetic task.
"""

from __future__ import annotations

import numpy as np

N_DENSE = 13
N_SPARSE = 26
TASK_SEED = 20210422
BASE_LOGIT = -2.5  # positive rate about 0.26
# assumptions, see the module docstring
ZIPF_ALPHA = 1.1
DENSE_MISSING = 0.10
SPARSE_MISSING = 0.05
EFFECT_SCALE = 0.5
DENSE_SCALE = 0.3


class CriteoRows:
    """n generated rows: raw dense counts (nan = missing), ids (0 = missing)
    and 0/1 labels."""

    def __init__(self, raw_dense: np.ndarray, ids: np.ndarray, labels: np.ndarray):
        self.raw_dense = raw_dense
        self.ids = ids
        self.labels = labels

    def normalized_dense(self) -> np.ndarray:
        """What the parser yields: log1p of the count, 0 where missing."""
        return np.log1p(np.nan_to_num(self.raw_dense, nan=0.0))

    def tokens(self, field: int) -> np.ndarray:
        """Hash-like 8-hex-digit tokens, distinct per (field, id)."""
        ids = self.ids[:, field].astype(np.uint64)
        hashed = ((ids + np.uint64(field << 24)) * np.uint64(2654435761)) \
            % np.uint64(2 ** 32)
        return np.char.mod("%08x", hashed)

    def write_tsv(self, path) -> None:
        """Criteo-format TSV: label, dense counts, tokens; empty = missing."""
        dense = [np.where(np.isnan(col), "", np.char.mod("%d", np.nan_to_num(col)))
                 for col in self.raw_dense.T]
        sparse = [np.where(self.ids[:, f] == 0, "", self.tokens(f))
                  for f in range(self.ids.shape[1])]
        labels = np.char.mod("%d", self.labels)
        with open(path, "w") as f:
            for row in zip(labels, *dense, *sparse):
                f.write("\t".join(row))
                f.write("\n")


def criteo_rows(seed, n: int, ids_per_field: int) -> CriteoRows:
    """n rows with ids 1..ids_per_field-1 per field (id 0 means missing);
    seed is anything numpy.random.default_rng accepts."""
    task = np.random.default_rng(TASK_SEED)
    effects = task.normal(0.0, EFFECT_SCALE, (N_SPARSE, ids_per_field))
    effects[:, 0] = 0.0
    dense_weights = task.normal(0.0, DENSE_SCALE, N_DENSE)

    rng = np.random.default_rng(seed)
    counts = np.floor(np.exp(rng.normal(0.5, 1.5, (n, N_DENSE)))) - 1.0
    raw_dense = np.maximum(counts, 0.0)
    raw_dense[rng.uniform(size=(n, N_DENSE)) < DENSE_MISSING] = np.nan

    weights = np.arange(1, ids_per_field, dtype=np.float64) ** -ZIPF_ALPHA
    cdf = np.cumsum(weights / weights.sum())
    draws = rng.uniform(size=(n, N_SPARSE))
    ids = 1 + np.minimum(np.searchsorted(cdf, draws), ids_per_field - 2)
    ids[rng.uniform(size=(n, N_SPARSE)) < SPARSE_MISSING] = 0

    dense = np.log1p(np.nan_to_num(raw_dense, nan=0.0))
    score = BASE_LOGIT + (dense - 1.0) @ dense_weights \
        + effects[np.arange(N_SPARSE), ids].sum(axis=1)
    labels = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-score))).astype(np.float64)
    return CriteoRows(raw_dense, ids.astype(np.int64), labels)


def unique_pair_share(ids: np.ndarray, batch_size: int) -> float:
    """Mean over consecutive batches of distinct (field, id) pairs per slot.

    1.0 means no id repeats within a field in a batch; a row-sparse
    embedding update touches this share of the rows a dense one would.
    """
    shares = []
    for start in range(0, len(ids), batch_size):
        batch = ids[start:start + batch_size]
        distinct = sum(len(np.unique(batch[:, f])) for f in range(batch.shape[1]))
        shares.append(distinct / batch.size)
    return float(np.mean(shares))
