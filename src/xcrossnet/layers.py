"""The four network stages as explicit forward/backward pairs.

Every stage is a pure function of (input, parameters) returning the output
plus a cache of the activations the hand-derived backward pass needs.
Parameters live in small dataclasses. The dense stages' backward passes
return their parameter gradients in the same dataclasses (a gradient has
exactly the shapes of its parameter); the embedding's backward pass does
not, because its gradient is nonzero only on the rows the instance looked
up: it returns those ids and their gradient rows.

The back half is batch-major: ConcatCross and Mlp take (B, .) arrays, one
instance per row, and their backward passes return (B, .) input gradients
and parameter gradients summed over the batch. CrossStack, Embedding and
ProductLayer still take one instance at a time; the model stacks their
outputs before the concat.

Stages, in pipeline order:

  CrossStack    dense input d, recursion  c_{l+1} = d * <c_l, w_l> + b_l,
                output [d; c_1; ...; c_L]
  Embedding     per-field lookup of category ids into K-dim rows
  ProductLayer  first-order sums <w1[t,i], e_i> and factored second-order
                sums |sum_i theta[t,i] * e_i|^2 over field embeddings
  ConcatCross   one more cross recursion over the concatenation of the
                dense and sparse stage outputs
  Mlp           ReLU hidden layers, one sigmoid output per row

The cross recursions use the rank-one shortcut: d * c^T * w == d * <c, w>,
a scalar scale instead of an M x M matrix (the naive matrix route lives in
`oracle` and is only used to check this one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import stable_sigmoid
from .errors import DataError, DimensionError


# ---------------------------------------------------------------------------
# cross stack on dense features
# ---------------------------------------------------------------------------


@dataclass
class CrossStack:
    """L cross layers over an M-dim dense input: weights[l], biases[l] in R^M."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def output_dim(self) -> int:
        return self.input_dim * (self.depth + 1)

    def param_count(self) -> int:
        # 2 * M * L: one weight and one bias vector per layer
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @classmethod
    def init(cls, input_dim: int, depth: int, rng: np.random.Generator) -> "CrossStack":
        weights = [rng.normal(0.0, 0.01, input_dim) for _ in range(depth)]
        biases = [np.zeros(input_dim) for _ in range(depth)]
        return cls(weights, biases)

    def zeros_like(self) -> "CrossStack":
        return CrossStack([np.zeros_like(w) for w in self.weights],
                          [np.zeros_like(b) for b in self.biases])


@dataclass
class CrossCache:
    d: np.ndarray
    cross_vecs: list[np.ndarray]  # [c_1, ..., c_L]
    scalars: list[float]          # s_l = <c_l, w_l> with c_0 = d


def cross_forward(d: np.ndarray, stack: CrossStack) -> tuple[np.ndarray, CrossCache]:
    """Run the cross recursion; returns ([d; c_1; ...; c_L], cache).

    Each layer costs O(M): one dot for the scalar s_l, one scale-and-add.
    """
    d = linalg.as_vec(d)
    if stack.depth and d.shape[0] != stack.input_dim:
        raise DimensionError(
            f"cross_forward: input has dim {d.shape[0]}, stack expects {stack.input_dim}")
    prev = d
    cross_vecs: list[np.ndarray] = []
    scalars: list[float] = []
    for w, b in zip(stack.weights, stack.biases):
        s = linalg.dot(prev, w)
        c = linalg.axpy(s, d, b)  # d * s + b
        scalars.append(s)
        cross_vecs.append(c)
        prev = c
    out = np.concatenate([d] + cross_vecs) if cross_vecs else d.copy()
    return out, CrossCache(d, cross_vecs, scalars)


def cross_backward(cache: CrossCache, grad_out: np.ndarray,
                   stack: CrossStack) -> tuple[np.ndarray, CrossStack]:
    """Reverse-mode pass through the cross recursion.

    With c_{l+1} = d * s_l + b_l and s_l = <c_l, w_l> (c_0 = d):

        db_l   = g_{l+1}
        ds_l   = <g_{l+1}, d>
        dw_l   = ds_l * c_l
        dc_l  += ds_l * w_l            (chain into the previous layer)
        dd    += g_{l+1} * s_l         (the direct d factor in every layer)

    where g_{l+1} is the accumulated gradient on c_{l+1}: the slice of
    grad_out for that segment plus whatever flowed back from deeper layers.
    """
    m = cache.d.shape[0]
    depth = stack.depth
    if grad_out.shape[0] != m * (depth + 1):
        raise DimensionError(
            f"cross_backward: grad has dim {grad_out.shape[0]}, "
            f"expected {m * (depth + 1)}")
    segs = grad_out.reshape(depth + 1, m)
    grads = stack.zeros_like()
    grad_d = segs[0].copy()
    running = np.zeros(m)  # gradient flowing back onto c_{l+1} from deeper layers
    for l in range(depth - 1, -1, -1):
        g_next = segs[l + 1] + running
        prev = cache.cross_vecs[l - 1] if l >= 1 else cache.d
        grads.biases[l] = g_next
        ds = linalg.dot(g_next, cache.d)
        grads.weights[l] = ds * prev
        grad_prev = ds * stack.weights[l]
        grad_d += g_next * cache.scalars[l]
        if l >= 1:
            running = grad_prev
        else:
            grad_d += grad_prev
    return grad_d, grads


# ---------------------------------------------------------------------------
# embedding on sparse features
# ---------------------------------------------------------------------------


@dataclass
class Embedding:
    """One (vocab_i x K) table per categorical field."""

    tables: list[np.ndarray]

    @property
    def n_fields(self) -> int:
        return len(self.tables)

    @property
    def embed_dim(self) -> int:
        return self.tables[0].shape[1]

    @property
    def vocab_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.tables)

    def param_count(self) -> int:
        return sum(t.size for t in self.tables)

    @classmethod
    def init(cls, vocab_sizes, embed_dim: int, rng: np.random.Generator) -> "Embedding":
        return cls([rng.normal(0.0, 0.01, (v, embed_dim)) for v in vocab_sizes])


@dataclass
class EmbedCache:
    ids: np.ndarray


def embed_forward(ids, emb: Embedding) -> tuple[np.ndarray, EmbedCache]:
    """Look up one row per field; returns (E of shape (N, K), cache)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (emb.n_fields,):
        raise DimensionError(
            f"embed_forward: got {ids.shape} ids for {emb.n_fields} fields")
    rows = []
    for i, table in enumerate(emb.tables):
        c = int(ids[i])
        if not 0 <= c < table.shape[0]:
            raise DataError(
                f"embed_forward: id {c} out of range for field {i} "
                f"(vocab {table.shape[0]}); map unknowns to 0 at ingestion")
        rows.append(table[c])
    return np.stack(rows), EmbedCache(ids)


def embed_backward(cache: EmbedCache, grad_e: np.ndarray,
                   emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """The lookup's gradient in row-sparse form: (ids, rows).

    Table i's gradient is rows[i] at row ids[i] and exactly zero on every
    other row, so it costs O(N * K) whatever the vocab sizes.
    """
    grad_e = np.asarray(grad_e, dtype=np.float64)
    if grad_e.shape != (emb.n_fields, emb.embed_dim):
        raise DimensionError(
            f"embed_backward: grad has shape {grad_e.shape}, "
            f"expected {(emb.n_fields, emb.embed_dim)}")
    return cache.ids, grad_e


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

    @property
    def size(self) -> int:
        return self.theta.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.size

    def param_count(self) -> int:
        return self.theta.size + self.order1.size

    @classmethod
    def init(cls, size: int, n_fields: int, embed_dim: int,
             rng: np.random.Generator) -> "ProductLayer":
        theta = rng.normal(0.0, 0.01, (size, n_fields))
        order1 = rng.normal(0.0, 0.01, (size, n_fields, embed_dim))
        return cls(theta, order1)

    def zeros_like(self) -> "ProductLayer":
        return ProductLayer(np.zeros_like(self.theta), np.zeros_like(self.order1))


@dataclass
class ProductCache:
    e: np.ndarray  # (N, K)
    u: np.ndarray  # (T, K), u[t] = sum_i theta[t, i] * e[i]


def product_forward(e: np.ndarray, pl: ProductLayer) -> tuple[np.ndarray, ProductCache]:
    """Returns ([p1_1..p1_T, p2_1..p2_T], cache)."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != pl.order1.shape[1:]:
        raise DimensionError(
            f"product_forward: embeddings {e.shape} vs layer fields "
            f"{pl.order1.shape[1:]}")
    u = pl.theta @ e                              # (T, K)
    p2 = np.einsum("tk,tk->t", u, u)
    p1 = np.einsum("tnk,nk->t", pl.order1, e)
    return np.concatenate([p1, p2]), ProductCache(e, u)


def product_backward(cache: ProductCache, grad_out: np.ndarray,
                     pl: ProductLayer) -> tuple[np.ndarray, ProductLayer]:
    """Gradients of the product layer.

    dp2_t/du_t = 2 u_t, so  dtheta[t, i] = 2 g2_t <u_t, e_i>  and the
    second-order path into e_i is  2 g2_t theta[t, i] u_t; the first-order
    path is linear in both order1 and e.
    """
    t = pl.size
    if grad_out.shape[0] != 2 * t:
        raise DimensionError(
            f"product_backward: grad has dim {grad_out.shape[0]}, expected {2 * t}")
    g1, g2 = grad_out[:t], grad_out[t:]
    grads = pl.zeros_like()
    gu = 2.0 * g2[:, None] * cache.u              # (T, K)
    grads.theta[:] = gu @ cache.e.T
    grads.order1[:] = g1[:, None, None] * cache.e[None, :, :]
    grad_e = pl.theta.T @ gu + np.einsum("t,tnk->nk", g1, pl.order1)
    return grad_e, grads


# ---------------------------------------------------------------------------
# concat + cross on the combined representation (batch-major)
# ---------------------------------------------------------------------------


def _as_rows(x, stage: str) -> np.ndarray:
    """Coerce to a (B, D) float64 array holding one instance per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(
            f"{stage}: expected a (batch, dim) array, got shape {x.shape}")
    return x


@dataclass
class ConcatCross:
    """A single cross layer over x0 = [dense stage out; sparse stage out]."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.input_dim

    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    @classmethod
    def init(cls, input_dim: int, rng: np.random.Generator) -> "ConcatCross":
        return cls(rng.normal(0.0, 0.01, input_dim), np.zeros(input_dim))


@dataclass
class ConcatCache:
    x0: np.ndarray       # (B, D)
    split: int           # boundary between the dense and sparse segments of x0
    scalars: np.ndarray  # (B,), s = X0 @ w


def concat_cross_forward(oc: np.ndarray, op: np.ndarray,
                         cc: ConcatCross) -> tuple[np.ndarray, ConcatCache]:
    """X1 = X0 * s[:, None] + b with s = X0 @ w, over X0 = [OC, OP].

    OC is (B, Dc) and OP is (B, Dp); returns ([X0, X1] of shape
    (B, 2 * (Dc + Dp)), cache).
    """
    oc = _as_rows(oc, "concat_cross_forward")
    op = _as_rows(op, "concat_cross_forward")
    if oc.shape[0] != op.shape[0] or oc.shape[1] + op.shape[1] != cc.input_dim:
        raise DimensionError(
            f"concat_cross_forward: inputs {oc.shape} and {op.shape} "
            f"vs weight dim {cc.input_dim}")
    x0 = np.concatenate([oc, op], axis=1)
    s = x0 @ cc.weight
    x1 = x0 * s[:, None] + cc.bias
    return np.concatenate([x0, x1], axis=1), ConcatCache(x0, oc.shape[1], s)


def concat_cross_backward(cache: ConcatCache, grad_out: np.ndarray,
                          cc: ConcatCross) -> tuple[np.ndarray, np.ndarray, ConcatCross]:
    """Row gradients split back into their (B, Dc) and (B, Dp) segments.

    Per row, with x1 = x0 * s + b and s = <x0, w>:

        db = g1,   ds = <g1, x0>,   dw = ds * x0,   dx0 = g0 + g1 * s + ds * w

    The parameter gradients are summed over the batch (dw as X0^T @ ds).
    """
    rows, dim = cache.x0.shape
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (rows, 2 * dim):
        raise DimensionError(
            f"concat_cross_backward: grad has shape {grad_out.shape}, "
            f"expected {(rows, 2 * dim)}")
    g0, g1 = grad_out[:, :dim], grad_out[:, dim:]
    ds = np.einsum("bd,bd->b", g1, cache.x0)
    grads = ConcatCross(cache.x0.T @ ds, g1.sum(axis=0))
    grad_x0 = g0 + g1 * cache.scalars[:, None] + ds[:, None] * cc.weight
    return grad_x0[:, :cache.split], grad_x0[:, cache.split:], grads


# ---------------------------------------------------------------------------
# MLP head (batch-major)
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

    def param_count(self) -> int:
        n = sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        return n + self.out_weight.size + self.out_bias.size

    @classmethod
    def init(cls, input_dim: int, widths, rng: np.random.Generator) -> "Mlp":
        weights, biases = [], []
        fan_in = input_dim
        for width in widths:
            bound = np.sqrt(6.0 / (fan_in + width))
            weights.append(rng.uniform(-bound, bound, (width, fan_in)))
            biases.append(np.zeros(width))
            fan_in = width
        bound = np.sqrt(6.0 / (fan_in + 1))
        out_weight = rng.uniform(-bound, bound, fan_in)
        return cls(weights, biases, out_weight, np.zeros(1))


@dataclass
class MlpCache:
    pre_acts: list[np.ndarray]  # Z_i (B, widths[i]) before ReLU
    hiddens: list[np.ndarray]   # H_i after ReLU; H_0 is the (B, D) input
    logits: np.ndarray          # (B,)
    probs: np.ndarray           # (B,)


def mlp_forward(h0: np.ndarray, mlp: Mlp) -> tuple[np.ndarray, MlpCache]:
    """The head over the rows of H0 (B, D); returns the (B,) probabilities."""
    h = _as_rows(h0, "mlp_forward")
    if h.shape[1] != mlp.input_dim:
        raise DimensionError(
            f"mlp_forward: input has dim {h.shape[1]}, expected {mlp.input_dim}")
    pre_acts, hiddens = [], [h]
    for w, b in zip(mlp.weights, mlp.biases):
        z = h @ w.T + b
        h = np.maximum(z, 0.0)
        pre_acts.append(z)
        hiddens.append(h)
    logits = h @ mlp.out_weight + mlp.out_bias[0]
    probs = stable_sigmoid(logits)
    return probs, MlpCache(pre_acts, hiddens, logits, probs)


def mlp_backward_logit(cache: MlpCache, grad_logit: np.ndarray,
                       mlp: Mlp) -> tuple[np.ndarray, Mlp]:
    """Backward pass from the (B,) gradient at the logits.

    The training loss enters here: the logloss/sigmoid chain simplifies
    algebraically to prob - label at the logit, which avoids the
    (prob * (1 - prob)) cancellation entirely. Returns the (B, D) input
    gradient and the parameter gradients summed over the batch, each
    weight's as one GEMM, GZ^T @ H.
    """
    g = np.asarray(grad_logit, dtype=np.float64)
    if g.shape != cache.logits.shape:
        raise DimensionError(
            f"mlp_backward_logit: grad has shape {g.shape}, "
            f"expected {cache.logits.shape}")
    n_layers = len(mlp.weights)
    weights, biases = [None] * n_layers, [None] * n_layers
    out_weight = cache.hiddens[-1].T @ g
    out_bias = np.array([g.sum()])
    gh = g[:, None] * mlp.out_weight
    for i in range(n_layers - 1, -1, -1):
        # ReLU subgradient at exactly 0 is taken as 0
        gz = gh * (cache.pre_acts[i] > 0.0)
        weights[i] = gz.T @ cache.hiddens[i]
        biases[i] = gz.sum(axis=0)
        gh = gz @ mlp.weights[i]
    return gh, Mlp(weights, biases, out_weight, out_bias)
