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

The moments are two flat vectors laid out like the registry's value
vector. A step makes one in-place pass over its dense run and one over
the gathered embedding rows of the registry's compact gradient; both
keep the operation order of the update expression, so they have its bits.
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
    """First and second moments, flat and laid out like registry.values,
    the step count t, and the scratch of one in-place chunk."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, registry) -> "AdamState":
        # zeros_like writes every page now, not in the first (timed) steps
        return cls(m=np.zeros_like(registry.values), v=np.zeros_like(registry.values),
                   scratch=(np.zeros(ADAM_CHUNK), np.zeros(ADAM_CHUNK)))


def adam_step(registry, state: AdamState, lr: float, lam: float = 0.0) -> None:
    """One Adam update from the gradients currently in the registry.

    On every dense parameter and on the embedding rows of the compact
    gradient (see the module docstring):

    g   <- grad + 2 * lam * theta
    m   <- BETA1 * m + (1 - BETA1) * g
    v   <- BETA2 * v + (1 - BETA2) * g^2
    theta <- theta - lr * (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)

    t counts steps, not the updates a row has had.
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    (theta_run, theta_block), (m_run, m_block), (v_run, v_block) = (
        registry.split(a) for a in (registry.values, state.m, state.v))
    _update(theta_run, registry.grad, m_run, v_run, state, lr, lam, c1, c2)
    rows = registry.embed_rows
    theta, m, v = theta_block[rows], m_block[rows], v_block[rows]
    _update(theta.ravel(), registry.embed_grad.ravel(), m.ravel(), v.ravel(),
            state, lr, lam, c1, c2)
    theta_block[rows], m_block[rows], v_block[rows] = theta, m, v


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
    {step, epoch, train_logloss, wall_ms}; on the validation cadence an
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
            emit({"step": step, "epoch": epoch, "train_logloss": loss,
                  "wall_ms": (time.perf_counter() - started) * 1e3})
        if valid is not None and config.eval_every and \
                (epoch + 1) % config.eval_every == 0:
            report = evaluate(predict_dataset(model, valid), valid.labels)
            emit({"step": step, "epoch": epoch,
                  "train_logloss": records[-1]["train_logloss"],
                  **{f"val_{key}": value for key, value in asdict(report).items()},
                  "wall_ms": (time.perf_counter() - started) * 1e3})
    return records
