"""Minimal float64 vector/matrix arithmetic with order-stable reductions.

Vectors and matrices are plain numpy float64 arrays (1-D and 2-D,
row-major). The one non-obvious rule: reductions accumulate in ascending
index order, so repeated runs are bit-identical and regression tests can
assert exact equality. Only the oracle uses it: the production layers
are batch-major GEMMs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

Vec64 = np.ndarray  # 1-D float64
Mat64 = np.ndarray  # 2-D float64, row-major


def as_vec(x) -> Vec64:
    """Coerce to a 1-D float64 array, rejecting anything else."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def dot(a: Vec64, b: Vec64) -> float:
    """Inner product, accumulated strictly in ascending index order."""
    a = as_vec(a)
    b = as_vec(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"dot: length mismatch {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        return 0.0
    # cumsum is sequential, unlike np.sum's pairwise reduction
    return float(np.cumsum(a * b)[-1])


def axpy(alpha: float, x: Vec64, y: Vec64) -> Vec64:
    """alpha * x + y, elementwise."""
    x = as_vec(x)
    y = as_vec(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"axpy: length mismatch {x.shape[0]} vs {y.shape[0]}")
    return alpha * x + y


def outer(a: Vec64, b: Vec64) -> Mat64:
    """Rank-one matrix M[i, j] = a[i] * b[j]."""
    return np.outer(as_vec(a), as_vec(b))
