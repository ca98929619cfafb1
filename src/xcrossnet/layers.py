"""The four network stages as explicit forward/backward pairs.

Every stage is a pure function of (input, parameters) returning the output
plus a cache of the activations the hand-derived backward pass needs, and
no more: the product stage contracts U = theta @ E_fields into P2 with one
einsum, and backward rebuilds U with one small GEMM and scales it into GU in
place; the MLP's ReLU gradient is masked with H_i > 0, not Z_i > 0.
Parameters live in small dataclasses whose arrays the model makes views
into its registry's value vector. A dense stage's backward pass writes its
parameter gradients into a carrier: a second dataclass of the same type
whose arrays are views of the registry's gradient vector (a gradient has
exactly the shapes of its parameter), and returns only input gradients.
The embedding's backward pass does not, because its gradient is nonzero
only on the rows the batch looked up: it returns those rows and one
summed gradient row for each.

Every stage is batch-major: it takes (B, .) arrays, one instance per row,
and its backward pass returns (B, .) input gradients and writes parameter
gradients summed over the batch, each a GEMM over the whole batch. Each
stage computes in its parameters' dtype (float32 or float64): it casts its
inputs and its upstream gradient to it.

Stages, in pipeline order:

  CrossStack    dense input D (B, M), recursion  C_{l+1} = D * s_l + b_l
                with s_l = C_l @ w_l, output [D, C_1, ..., C_L]
  Embedding     per-field lookup of (B, N) category ids into (B, N, K),
                one np.take from the stacked tables
  ProductLayer  first-order sums <w1[t,i], e_i> and factored second-order
                sums |sum_i theta[t,i] * e_i|^2 over field embeddings
  concat        a depth-one CrossStack over X0 = [OC; OP], the
                concatenation of the dense and sparse stage outputs
  Mlp           ReLU hidden layers, one sigmoid output per row

Both cross stages use the rank-one shortcut: per row, d * c^T * w ==
d * <c, w>, so a layer's scale over the batch is the row-wise product
s = C @ w instead of an M x M matrix per row (the naive matrix route lives
in `oracle` and is only used to check this one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import stable_sigmoid
from .errors import DataError, DimensionError


def _as_rows(x, stage: str, dtype) -> np.ndarray:
    """Coerce to a (B, D) array holding one instance per row, in the
    stage's parameter dtype, so that the stage computes in that dtype."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2:
        raise DimensionError(
            f"{stage}: expected a (batch, dim) array, got shape {x.shape}")
    return x


def _upstream(grad, expected: tuple, stage: str, dtype) -> np.ndarray:
    """Coerce a backward pass's upstream gradient to the stage's parameter
    dtype, checking that it has its output's shape."""
    grad = np.asarray(grad, dtype=dtype)
    if grad.shape != expected:
        raise DimensionError(f"{stage}: grad has shape {grad.shape}, expected {expected}")
    return grad


# ---------------------------------------------------------------------------
# cross stack on dense features
# ---------------------------------------------------------------------------


@dataclass
class CrossStack:
    """L cross layers over an M-dim input: weights[l], biases[l] in R^M."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype if self.weights else np.dtype(np.float64)


@dataclass
class CrossCache:
    d: np.ndarray                 # (B, M)
    cross_vecs: list[np.ndarray]  # [C_1, ..., C_{L-1}], each (B, M); backward never reads C_L
    scalars: list[np.ndarray]     # s_l = C_l @ w_l, each (B,), with C_0 = D


def cross_forward(d: np.ndarray, stack: CrossStack) -> tuple[np.ndarray, CrossCache]:
    """Run the cross recursion over the rows of D (B, M).

    Returns ([D, C_1, ..., C_L] of shape (B, M * (L + 1)), cache). Each
    layer costs O(B * M): one matrix-vector product for the row scales
    s_l = C_l @ w_l, one scale-and-add C_{l+1} = D * s_l[:, None] + b_l.
    """
    d = _as_rows(d, "cross_forward", stack.dtype)
    if stack.depth and d.shape[1] != stack.input_dim:
        raise DimensionError(
            f"cross_forward: input has dim {d.shape[1]}, stack expects {stack.input_dim}")
    prev = d
    cross_vecs: list[np.ndarray] = []
    scalars: list[np.ndarray] = []
    for w, b in zip(stack.weights, stack.biases):
        s = prev @ w
        prev = d * s[:, None] + b
        scalars.append(s)
        cross_vecs.append(prev)
    return np.concatenate([d] + cross_vecs, axis=1), CrossCache(d, cross_vecs[:-1], scalars)


def cross_backward(cache: CrossCache, grad_out: np.ndarray, stack: CrossStack,
                   grads: CrossStack) -> np.ndarray:
    """Reverse-mode pass through the cross recursion.

    Per row, with c_{l+1} = d * s_l + b_l and s_l = <c_l, w_l> (c_0 = d):

        db_l   = g_{l+1}
        ds_l   = <g_{l+1}, d>
        dw_l   = ds_l * c_l
        dc_l  += ds_l * w_l            (chain into the previous layer)
        dd    += g_{l+1} * s_l         (the direct d factor in every layer)

    where g_{l+1} is the accumulated gradient on c_{l+1}: the slice of
    grad_out for that segment plus whatever flowed back from deeper layers.
    Returns the (B, M) input gradient and writes the parameter gradients
    summed over the batch, dw_l = C_l^T @ ds and db_l = G_{l+1}.sum(0),
    into grads.
    """
    rows, m = cache.d.shape
    depth = stack.depth
    grad_out = _upstream(grad_out, (rows, m * (depth + 1)), "cross_backward", cache.d.dtype)
    segs = grad_out.reshape(rows, depth + 1, m)
    grad_d = segs[:, 0].copy()
    running = 0.0  # gradient flowing back onto C_{l+1} from deeper layers
    for l in range(depth - 1, -1, -1):
        g_next = segs[:, l + 1] + running
        prev = cache.cross_vecs[l - 1] if l >= 1 else cache.d
        ds = np.einsum("bm,bm->b", g_next, cache.d)
        np.matmul(prev.T, ds, out=grads.weights[l])
        np.sum(g_next, axis=0, out=grads.biases[l])
        grad_d += g_next * cache.scalars[l][:, None]
        running = ds[:, None] * stack.weights[l]
    grad_d += running  # the chain through C_0 = D
    return grad_d


# ---------------------------------------------------------------------------
# embedding on sparse features
# ---------------------------------------------------------------------------


@dataclass
class Embedding:
    """Every field's (vocab_i x K) table, stacked into one (sum vocab, K)
    block: field i's table is the rows from offsets[i] on."""

    table: np.ndarray
    vocab_sizes: tuple[int, ...]

    def __post_init__(self):
        self.offsets = np.cumsum([0, *self.vocab_sizes[:-1]])

    @property
    def n_fields(self) -> int:
        return len(self.vocab_sizes)

    @property
    def embed_dim(self) -> int:
        return self.table.shape[1]


def embed_forward(ids, emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Look up every row's id per field; returns (E of shape (B, N, K), cache),
    the cache being the (B, N) block rows: each id plus its field's offset."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != emb.n_fields:
        raise DimensionError(
            f"embed_forward: got ids of shape {ids.shape} for {emb.n_fields} fields")
    bad = (ids < 0) | (ids >= np.asarray(emb.vocab_sizes))
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise DataError(
            f"embed_forward: id {ids[bad[:, i], i][0]} out of range for field {i} "
            f"(vocab {emb.vocab_sizes[i]}); map unknowns to 0 at ingestion")
    rows = ids + emb.offsets
    return np.take(emb.table, rows, axis=0), rows


def embed_backward(cache: np.ndarray, grad_e: np.ndarray,
                   emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """The lookup's gradient in compact form: (rows, grad).

    rows holds the distinct block rows the batch looked up, sorted, and
    grad[j] the sum of grad_e[b, i] over every (b, i) that looked up
    rows[j], summed in batch-row order from +0.0 by one np.bincount over
    the (row, column) slots: same order, same bits as the instance-order
    sum. np.bincount sums in float64 whatever the table's dtype; the rows
    are then rounded to it. Other rows' gradients are exactly zero; the
    cost is O(B * N * K).
    """
    grad_e = _upstream(grad_e, (*cache.shape, emb.embed_dim), "embed_backward",
                       emb.table.dtype)
    rows, inverse = np.unique(cache.ravel(), return_inverse=True)
    slots = inverse[:, None] * emb.embed_dim + np.arange(emb.embed_dim)
    grad = np.bincount(slots.ravel(), weights=grad_e.ravel())  # int64 when empty
    return rows, grad.astype(emb.table.dtype, copy=False).reshape(-1, emb.embed_dim)


# ---------------------------------------------------------------------------
# product layer on embedded sparse features
# ---------------------------------------------------------------------------


@dataclass
class ProductLayer:
    """T output slots over N fields: theta (T, N) and order-1 weights (T, N, K).

    Slot t emits the first-order sum  p1_t = sum_i <order1[t, i], e_i>  and
    the factored second-order sum  p2_t = |u_t|^2  with
    u_t = sum_i theta[t, i] * e_i, which equals the full double sum
    sum_ij theta[t,i] * theta[t,j] * <e_i, e_j> at O(N*K) cost.
    """

    theta: np.ndarray
    order1: np.ndarray


@dataclass
class ProductCache:
    e: np.ndarray   # (B, N, K)
    et: np.ndarray  # (N, B * K), the fields-major copy of e; U = theta @ et is rebuilt


def product_forward(e: np.ndarray, pl: ProductLayer) -> tuple[np.ndarray, ProductCache]:
    """Returns ([P1, P2] of shape (B, 2T), cache) for E of shape (B, N, K).

    U = theta @ E is one GEMM over the (N, B * K) fields-major layout and
    P1 = E_flat @ order1_flat^T one over the (B, N * K) row layout. P2 is one
    einsum of U with itself over K: no U-sized square, bits not a square-then-sum's.
    """
    e = np.asarray(e, dtype=pl.theta.dtype)
    t, n, k = pl.order1.shape
    if e.ndim != 3 or e.shape[1:] != (n, k):
        raise DimensionError(
            f"product_forward: embeddings {e.shape} vs layer fields {(n, k)}")
    rows = e.shape[0]
    et = e.transpose(1, 0, 2).reshape(n, rows * k)
    u = (pl.theta @ et).reshape(t, rows, k)
    p2 = np.einsum("tbk,tbk->bt", u, u)
    p1 = e.reshape(rows, n * k) @ pl.order1.reshape(t, n * k).T
    return np.concatenate([p1, p2], axis=1), ProductCache(e, et)


def product_backward(cache: ProductCache, grad_out: np.ndarray, pl: ProductLayer,
                     grads: ProductLayer) -> np.ndarray:
    """Gradients of the product layer, each one GEMM over the batch.

    Per row, dp2_t/du_t = 2 u_t, so  dtheta[t, i] = 2 g2_t <u_t, e_i>  and
    the second-order path into e_i is  2 g2_t theta[t, i] u_t; the
    first-order path is linear in both order1 and e. Over the batch, with
    U = theta @ E_fields rebuilt with the forward pass's GEMM on the same
    operands (so with the same bits) and GU = 2 * G2 * U in the (T, B * K)
    layout, scaled in U's own buffer:

        dtheta = GU @ E_fields^T             (T, N)
        dorder1 = G1^T @ E_flat              (T, N * K)
        grad_E = theta^T @ GU + G1 @ order1_flat

    Returns grad_E (B, N, K) and writes dtheta and dorder1 into grads.
    """
    rows, n, k = cache.e.shape
    t = pl.theta.shape[0]
    grad_out = _upstream(grad_out, (rows, 2 * t), "product_backward", cache.e.dtype)
    g1, g2 = grad_out[:, :t], grad_out[:, t:]
    gu = pl.theta @ cache.et
    gu.reshape(t, rows, k)[...] *= (2.0 * g2.T)[:, :, None]
    np.matmul(gu, cache.et.T, out=grads.theta)
    np.matmul(g1.T, cache.e.reshape(rows, n * k), out=grads.order1.reshape(t, n * k))
    return (pl.theta.T @ gu).reshape(n, rows, k).transpose(1, 0, 2) + \
        (g1 @ pl.order1.reshape(t, n * k)).reshape(rows, n, k)


# ---------------------------------------------------------------------------
# concat cross: a depth-one CrossStack over X0 = [OC, OP]
# ---------------------------------------------------------------------------

# aliases, not wrappers: a tracer that wraps each name times the concat stage alone
concat_cross_forward = cross_forward
concat_cross_backward = cross_backward


# ---------------------------------------------------------------------------
# MLP head
# ---------------------------------------------------------------------------


@dataclass
class Mlp:
    """ReLU hidden layers then a scalar sigmoid output.

    weights[i] has shape (widths[i], fan_in); out_weight maps the last
    hidden layer (or the raw input when there are no hidden layers) to the
    scalar logit. out_bias is kept as a shape-(1,) array so the parameter
    registry can hold a flat view of it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    out_weight: np.ndarray
    out_bias: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1] if self.weights else self.out_weight.shape[0]


@dataclass
class MlpCache:
    hiddens: list[np.ndarray]   # H_i after ReLU (Z_i is not kept); H_0 is the (B, D) input
    logits: np.ndarray          # (B,)
    probs: np.ndarray           # (B,)


def mlp_forward(h0: np.ndarray, mlp: Mlp) -> tuple[np.ndarray, MlpCache]:
    """The head over the rows of H0 (B, D); returns the (B,) probabilities."""
    h = _as_rows(h0, "mlp_forward", mlp.out_weight.dtype)
    if h.shape[1] != mlp.input_dim:
        raise DimensionError(
            f"mlp_forward: input has dim {h.shape[1]}, expected {mlp.input_dim}")
    hiddens = [h]
    for w, b in zip(mlp.weights, mlp.biases):
        z = h @ w.T
        z += b
        h = np.maximum(z, 0.0, out=z)
        hiddens.append(h)
    logits = h @ mlp.out_weight + mlp.out_bias[0]
    probs = stable_sigmoid(logits)
    return probs, MlpCache(hiddens, logits, probs)


def mlp_backward_logit(cache: MlpCache, grad_logit: np.ndarray, mlp: Mlp,
                       grads: Mlp) -> np.ndarray:
    """Backward pass from the (B,) gradient at the logits.

    The training loss enters here: the logloss/sigmoid chain simplifies
    algebraically to prob - label at the logit, which avoids the
    (prob * (1 - prob)) cancellation entirely. Returns the (B, D) input
    gradient and writes the parameter gradients summed over the batch,
    each weight's as one GEMM, GZ^T @ H, into grads.
    """
    g = _upstream(grad_logit, cache.logits.shape, "mlp_backward_logit", cache.logits.dtype)
    np.matmul(cache.hiddens[-1].T, g, out=grads.out_weight)
    grads.out_bias[0] = g.sum()
    gh = g[:, None] * mlp.out_weight
    for i in range(len(mlp.weights) - 1, -1, -1):
        # ReLU subgradient at exactly 0 is taken as 0; max(z, 0) > 0 exactly
        # when z > 0, NaN included, so H_i gives Z_i's mask bit for bit
        gz = gh * (cache.hiddens[i + 1] > 0.0)
        np.matmul(gz.T, cache.hiddens[i], out=grads.weights[i])
        np.sum(gz, axis=0, out=grads.biases[i])
        gh = gz @ mlp.weights[i]
    return gh
