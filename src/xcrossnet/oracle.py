"""Brute-force reference implementations used only to verify the fast paths.

Nothing here shares code with the production layers: the cross oracle
materializes the full rank-one matrix the fast path avoids, the product
oracle runs the O(N^2 K) double sum the fast path factors, gradients come
from central finite differences, and the polynomial oracle expands the
cross recursion symbolically into monomials. Loop orders deliberately
differ from the fast implementations where there is a choice. The naive
cross and product oracles take one instance; tests compare them with each
row of a batch.

The per-field order-count closed form for a monomial's coefficient (the
sum over fields k of the choice tuples that pick field k exactly alpha_k
times) matches this expansion for m = 1 field, matches it up to a factor
of m for m = 2, and diverges for m >= 3.

These paths may be exponential in small bounded sizes; they are test
equipment, not production code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, batch_iter, stable_sigmoid
from .errors import DimensionError, NumericError
from .layers import CrossStack
from .metrics import auc, logloss
from .model import ParamRegistry, XCrossNetModel
from .optim import AdamState, adam_step, batch_loss_and_grad


# ---------------------------------------------------------------------------
# naive layer recomputations
# ---------------------------------------------------------------------------


def _as_vec(x) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting anything else."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def naive_cross_forward(d: np.ndarray, stack: CrossStack) -> np.ndarray:
    """The cross recursion with the M x M outer-product matrix materialized."""
    d = _as_vec(d)
    prev = d
    segments = [d]
    for w, b in zip(stack.weights, stack.biases):
        mat = np.outer(d, prev)  # O(M^2) on purpose
        c = mat @ w + b
        segments.append(c)
        prev = c
    return np.concatenate(segments)


def naive_product_p2(e, theta, t: int) -> float:
    """Literal double sum  sum_i sum_j theta[t,i] theta[t,j] <e_i, e_j>."""
    e = np.asarray(e, dtype=np.float64)
    n_fields, k = e.shape
    total = 0.0
    for i in range(n_fields):
        for j in range(n_fields):
            inner = 0.0
            for kk in range(k):
                inner += e[i, kk] * e[j, kk]
            total += theta[t, i] * theta[t, j] * inner
    return total


# ---------------------------------------------------------------------------
# symbolic polynomial expansion of the cross recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    exponents: tuple[int, ...]  # per-field powers; sum is the monomial order
    coefficient: float


EXPANSION_TERM_CAP = 1 << 20


def expand_cross_polynomial(weights) -> list[Monomial]:
    """Expand prod_i <d, w_i> into monomials of degree len(weights).

    With zero biases the cross recursion's scalar chain <c_last, w_last>
    collapses to exactly this product of linear forms, so evaluating the
    returned polynomial at any d must reproduce the numeric chain.
    Enumerates all m^len(weights) field choices; guarded against blowup.
    """
    weights = [_as_vec(w) for w in weights]
    m = weights[0].shape[0]
    n_forms = len(weights)
    if m ** n_forms > EXPANSION_TERM_CAP:
        raise ValueError(
            f"expansion would enumerate {m}^{n_forms} terms; refusing")
    coeffs: dict[tuple[int, ...], float] = {}
    for picks in itertools.product(range(m), repeat=n_forms):
        coeff = 1.0
        for form, j in enumerate(picks):
            coeff *= weights[form][j]
        exps = [0] * m
        for j in picks:
            exps[j] += 1
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0.0) + coeff
    return [Monomial(exps, c) for exps, c in sorted(coeffs.items())]


def evaluate_monomials(monomials, d) -> float:
    d = _as_vec(d)
    total = 0.0
    for mono in monomials:
        term = mono.coefficient
        for j, power in enumerate(mono.exponents):
            term *= d[j] ** power
        total += term
    return total


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


#: A central difference's rounding, in ulps of the loss over eps: at 60 seeds
#: of each of three gradcheck points the backward pass was within 2.1 of it.
FD_ROUNDING_ULPS = 4


def finite_diff(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central differences (f(theta + eps e_i) - f(theta - eps e_i)) / 2 eps."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    work = theta.copy()
    for i in range(theta.shape[0]):
        work[i] = theta[i] + eps
        f_plus = f(work)
        work[i] = theta[i] - eps
        f_minus = f(work)
        work[i] = theta[i]
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(f"non-finite probe at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# whole-model gradient check
# ---------------------------------------------------------------------------


def relative_error(analytic, numeric, atol: float = 1e-10) -> np.ndarray:
    """|a - n| / max(|a|, |n|) elementwise; 0 where |a - n| <= atol."""
    diff = np.abs(np.subtract(analytic, numeric))
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.divide(diff, scale, out=np.zeros_like(scale), where=diff > atol)


#: A gradcheck point's parameter draw bound, its largest |logit|, its draws
#: before giving up, and how near the ReLU kink a pre-activation may sit.
PARAM_SCALE, LOGIT_CAP, MAX_TRIES, KINK_FLOOR = 0.3, 8.0, 50, 1e-4


def relu_kink_risk(mlp, cache) -> bool:
    """True if any pre-activation of mlp, in the forward pass that left cache
    (its MlpCache), sits within KINK_FLOOR of the ReLU kink. Each pre-activation
    Z_i = H_{i-1} @ W_i^T + b_i is rebuilt from the H_i the cache keeps."""
    return any(np.any(np.abs(h @ w.T + b) < KINK_FLOOR)
               for h, w, b in zip(cache.hiddens, mlp.weights, mlp.biases))


def gradcheck_point(config, seed: int, instances: int = 3):
    """A (model, batch) pair where finite differences are trustworthy.

    The training-scale init puts late-stage gradients below what central
    differences can resolve, so the check point redraws every parameter
    uniform +-PARAM_SCALE. Draws are rejected while any MLP pre-activation
    sits near the ReLU kink or any |logit| exceeds LOGIT_CAP (past ~16 the
    loss clamp makes the probed function flat while the analytic gradient
    is not). The model is float64 whatever config.dtype: a float32 central
    difference rounds far above any useful tolerance.
    """
    model = XCrossNetModel.init(replace(config, dtype="float64"))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        for entry in model.registry:  # in registry order, as one vector's draws
            entry.values[...] = rng.uniform(-PARAM_SCALE, PARAM_SCALE, entry.values.shape)
        dense = rng.uniform(-1.0, 1.0, (instances, config.dense_fields))
        sparse = np.column_stack(
            [rng.integers(0, v, instances) for v in config.vocab_sizes])
        labels = rng.integers(0, 2, instances).astype(np.float64)
        batch = Dataset(dense, sparse, labels)
        cache = model.forward(batch)[1].mlp
        if np.max(np.abs(cache.logits)) <= LOGIT_CAP and \
                not relu_kink_risk(model.mlp, cache):
            return model, batch
    raise NumericError(
        f"no well-conditioned gradcheck point found in {MAX_TRIES} draws")


def gradcheck_model(model, batch, eps: float = 1e-5,
                    perturb_group: str | None = None) -> dict[str, float]:
    """Max relative error per registry group: backward vs finite differences.

    The probed function is the mean logloss over the batch; the analytic
    side is the model's hand-derived backward pass. Coordinates whose two
    sides differ by no more than a central difference's rounding
    (FD_ROUNDING_ULPS ulps of the loss over eps) agree; every other one
    counts, however small. perturb_group, when set, offsets that group's
    compared analytic gradient (not the registry's) so callers can confirm
    the comparison detects wrong gradients. The model must be float64.
    """
    registry = model.registry
    if registry.values.dtype != np.float64:
        raise ValueError(f"gradcheck needs a float64 model, got {registry.values.dtype}")
    theta0 = registry.values.copy()
    analytic_loss = batch_loss_and_grad(model, batch)
    if not math.isfinite(analytic_loss):
        raise NumericError("loss is non-finite at the gradcheck point")
    analytic = registry.get_grad_flat()

    def probe(theta):
        registry.set_flat(theta)
        return logloss(model.forward(batch)[0], batch.labels)

    numeric = finite_diff(probe, theta0, eps)
    registry.set_flat(theta0)

    atol = FD_ROUNDING_ULPS * np.spacing(abs(analytic_loss)) / eps
    if perturb_group is not None:
        registry[perturb_group].view(analytic)[...] += 1e-2
    return {e.name: float(np.max(relative_error(e.view(analytic), e.view(numeric), atol)))
            for e in registry}


# ---------------------------------------------------------------------------
# linear baseline
# ---------------------------------------------------------------------------


def lr_baseline_auc(train: Dataset, valid: Dataset) -> float:
    """Validation AUC of plain logistic regression on dense + one-hot sparse.

    The forward/gradient math is its own vectorized code, but the update
    reuses the production Adam step and batch iterator, so the comparison
    against the full model isolates the representation, not the optimizer.
    The run is fixed: 5 epochs of 512-row batches shuffled from seed 0,
    Adam at lr 1e-3 with L2 1e-4.
    """
    vocab_sizes = [int(max(train.sparse[:, i].max(), valid.sparse[:, i].max())) + 1
                   for i in range(train.n_sparse)]
    registry = ParamRegistry([("w_dense", (train.n_dense,))]
                             + [(f"w_cat{i}", (v,)) for i, v in enumerate(vocab_sizes)]
                             + [("bias", (1,))])
    w_dense, bias = registry["w_dense"].values, registry["bias"].values
    w_cats = [registry[f"w_cat{i}"].values for i in range(len(vocab_sizes))]
    state = AdamState.init(registry)

    def logits_of(ds: Dataset) -> np.ndarray:
        z = ds.dense @ w_dense + bias[0]
        for i, w_cat in enumerate(w_cats):
            z = z + w_cat[ds.sparse[:, i]]
        return z

    for epoch in range(5):
        for batch in batch_iter(train, 512, seed=(0, epoch)):
            p = stable_sigmoid(logits_of(batch))
            g = (p - batch.labels) / len(batch)
            registry["w_dense"].grad[:] = batch.dense.T @ g
            for i in range(len(w_cats)):
                grad_cat = registry[f"w_cat{i}"].grad
                grad_cat[:] = 0.0
                np.add.at(grad_cat, batch.sparse[:, i], g)
            registry["bias"].grad[0] = g.sum()
            adam_step(registry, state, 1e-3, 1e-4)
    return auc(stable_sigmoid(logits_of(valid)), valid.labels)
