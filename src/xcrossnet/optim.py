"""Logloss objective (metrics.logloss) with L2 regularization, Adam, and
the training loop. Adam steps from the batch-mean gradient that the
model's backward pass leaves in the registry.

Regularization is the squared L2 norm over every registry parameter
(biases and embedding tables included), applied in coupled form: the
2 * lambda * theta term is added to the gradient before the Adam moment
updates.

Adam is lazy on the embedding tables (LazyAdam): a step updates only the
rows the batch looked up, with their moments, and leaves every other row
and its moments as they were. The coupled L2 term therefore reaches a
table row only on steps whose batch touches it. Every other parameter is
updated whole on every step, as in plain Adam. When a batch touches every
row, the step is bitwise the plain Adam step.

Adam's moments and scratch are of the registry's dtype, and every step
computes in it. The dense run's moments are two vectors laid out like the
registry's gradient. The embedding block's moments are compact: one row
slot for each block row a step has updated, taken front to back in
first-update order, so their resident memory follows the rows updated so
far, not the vocab. That saves memory only while a run has updated a
small share of the rows: a `train` run, whose vocab holds only tokens of
its training split, updates every row within its first epoch, and from
then on the moments are as large as the block, plus 4 B a row of slot
map. A step makes one in-place pass over the dense run and one over the
gathered embedding rows of the registry's compact gradient; both keep the
operation order of the update expression, so they have its bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import data as data_mod
from .errors import DataError, NumericError, finite_problems, int_problems
from .metrics import evaluate, logloss, predict_dataset

# Adam's decay rates and denominator offset (Kingma and Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements per in-place Adam chunk. It fixes the size of the two scratch
# vectors whatever a batch's row count, and it is a speed setting: each pass's
# operands stay in cache. One _update over the 0.43M Criteo dense values, one
# thread: 3.0-3.7 ms chunked, 4.3-4.4 ms in one pass (median of 30, 2-vCPU Xeon).
ADAM_CHUNK = 16384


@dataclass
class AdamState:
    """Adam's moments, the step count t, and the scratch of one in-place
    chunk.

    Every array but slots is of the registry's dtype. m and v are the
    dense run's moments, laid out like registry.grad.
    m_rows and v_rows hold the embedding block's, one (K,) row per slot:
    slots maps each block row to its slot, -1 until the row's first
    update, and the first `used` slots are taken. An untaken slot is zero,
    as are the moments of a row that was never updated.
    """

    m: np.ndarray
    v: np.ndarray
    m_rows: np.ndarray
    v_rows: np.ndarray
    slots: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    used: int = 0
    t: int = 0

    @classmethod
    def init(cls, registry) -> "AdamState":
        # The dense moments and the slot map are written now, so that their
        # pages fault here, not in the first (timed) steps. The slot rows
        # come from np.zeros, whose pages are committed only as the used
        # prefix reaches them: rows laid out like the block would commit a
        # 2 MB huge page at each scattered first touch. int32 slots number
        # 2^31 rows, far more than a block that fits in RAM.
        rows, dtype = registry.embed_block.shape, registry.values.dtype
        return cls(m=np.zeros_like(registry.grad), v=np.zeros_like(registry.grad),
                   m_rows=np.zeros(rows, dtype), v_rows=np.zeros(rows, dtype),
                   slots=np.full(rows[0], -1, dtype=np.int32),
                   scratch=(np.zeros(ADAM_CHUNK, dtype), np.zeros(ADAM_CHUNK, dtype)))


def adam_step(registry, state: AdamState, lr: float, lam: float = 0.0) -> None:
    """One Adam update from the gradients currently in the registry.

    On every dense parameter and on the embedding rows of the compact
    gradient (see the module docstring):

    g   <- grad + 2 * lam * theta
    m   <- BETA1 * m + (1 - BETA1) * g
    v   <- BETA2 * v + (1 - BETA2) * g^2
    theta <- theta - lr * (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)

    t counts steps, not the updates a row has had. A row updated for the
    first time takes the next free slot, whose moments are zero.
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    theta_run, theta_block = registry.split(registry.values)
    _update(theta_run, registry.grad, state.m, state.v, state, lr, lam, c1, c2)
    rows = registry.embed_rows
    new = rows[state.slots[rows] < 0]
    state.slots[new] = np.arange(state.used, state.used + new.size)
    state.used += new.size
    slots = state.slots[rows]
    theta, m, v = theta_block[rows], state.m_rows[slots], state.v_rows[slots]
    _update(theta.ravel(), registry.embed_grad.ravel(), m.ravel(), v.ravel(),
            state, lr, lam, c1, c2)
    theta_block[rows], state.m_rows[slots], state.v_rows[slots] = theta, m, v


def _update(theta, g, m, v, state: AdamState, lr, lam, c1, c2) -> None:
    """The Adam update in place in the flat theta, m and v, one chunk at a
    time through the scratch.

    Each operation is the one the expression in adam_step's docstring
    evaluates, in its order ((2 * lam) * theta, then the sum, and so on),
    so the result has the bits of the expression.
    """
    for i in range(0, theta.size, ADAM_CHUNK):
        part = slice(i, i + ADAM_CHUNK)
        theta_, g_, m_, v_ = theta[part], g[part], m[part], v[part]
        s1, s2 = (s[:theta_.size] for s in state.scratch)
        if lam:
            g_ = np.add(g_, np.multiply(theta_, 2.0 * lam, out=s1), out=s1)
        m_ *= BETA1
        m_ += np.multiply(g_, 1.0 - BETA1, out=s2)
        v_ *= BETA2
        np.multiply(g_, g_, out=s2)
        s2 *= 1.0 - BETA2
        v_ += s2
        np.sqrt(np.divide(v_, c2, out=s1), out=s1)
        s1 += EPS
        np.divide(m_, c1, out=s2)
        s2 *= lr
        s2 /= s1
        theta_ -= s2


def batch_loss_and_grad(model, batch) -> float:
    """Mean logloss over the batch; mean gradient left in the registry.

    One forward and one backward pass over the whole batch. The result is
    a pure function of the batch content.
    """
    probs, cache = model.forward(batch)
    model.backward(cache, batch.labels)
    return logloss(probs, batch.labels)


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 4096
    l2: float = 1e-4
    epochs: int = 1
    eval_every: int = 1  # epochs between validation passes; 0 disables

    def validate(self) -> list[str]:
        """Collect every problem: lr and l2 must be finite numbers >= 0, the
        counts Python ints (bool is not accepted as either)."""
        return finite_problems({"lr": self.lr, "l2": self.l2}, low=0) + \
            int_problems({"batch_size": self.batch_size}) + \
            int_problems({"epochs": self.epochs, "eval_every": self.eval_every}, low=0)


def fit(model, train: "data_mod.Dataset", config: TrainConfig,
        valid: "data_mod.Dataset | None" = None, callbacks=()) -> list[dict]:
    """Epochs of shuffled mini-batches with per-batch Adam updates.

    Returns (and streams to callbacks) one record per batch:
    {step, epoch, train_logloss, inst_per_s, wall_ms}, where inst_per_s is
    the batch's rows over the wall time since the previous record (or since
    fit started); on the validation cadence an
    extra record additionally carries the EvalReport of the validation set
    as val_auc, val_logloss, val_n_pos and val_n_neg. Epoch e is shuffled
    by default_rng((model.config.seed, e)).
    """
    if len(train) == 0:
        raise DataError("cannot fit on an empty dataset")
    if train.n_dense != model.config.dense_fields or \
            train.n_sparse != model.config.sparse_fields:
        raise DataError(
            f"dataset has {train.n_dense} dense / {train.n_sparse} sparse fields, "
            f"model expects {model.config.dense_fields} / {model.config.sparse_fields}")
    state = AdamState.init(model.registry)
    records: list[dict] = []
    started = time.perf_counter()

    def emit(record: dict) -> None:
        records.append(record)
        for cb in callbacks:
            cb(record)

    step = 0
    for epoch in range(config.epochs):
        for batch in data_mod.batch_iter(train, config.batch_size,
                                         seed=(model.config.seed, epoch)):
            loss = batch_loss_and_grad(model, batch)
            if not math.isfinite(loss):
                raise NumericError(
                    f"training loss became non-finite at step {step}")
            adam_step(model.registry, state, config.lr, config.l2)
            step += 1
            wall_ms = (time.perf_counter() - started) * 1e3
            since_ms = wall_ms - (records[-1]["wall_ms"] if records else 0.0)
            emit({"step": step, "epoch": epoch, "train_logloss": loss,
                  "inst_per_s": len(batch) / since_ms * 1e3, "wall_ms": wall_ms})
        if valid is not None and config.eval_every and \
                (epoch + 1) % config.eval_every == 0:
            report = evaluate(predict_dataset(model, valid), valid.labels)
            emit({"step": step, "epoch": epoch,
                  "train_logloss": records[-1]["train_logloss"],
                  **{f"val_{key}": value for key, value in asdict(report).items()},
                  "wall_ms": (time.perf_counter() - started) * 1e3})
    return records
