"""Logloss objective (metrics.logloss) with L2 regularization, Adam, and
the training loop.

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import DataError, NumericError
from .metrics import evaluate, logloss


def objective(loss: float, registry, lam: float) -> float:
    """loss + lam * ||theta||^2, summed over all registry parameters."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    penalty = 0.0
    for entry in registry:
        penalty += float(np.sum(entry.values * entry.values))
    return loss + lam * penalty


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, registry) -> "AdamState":
        return cls(m=[np.zeros_like(e.values) for e in registry],
                   v=[np.zeros_like(e.values) for e in registry])


def adam_step(registry, state: AdamState, lr: float, lam: float = 0.0) -> None:
    """One Adam update from the gradients currently in the registry.

    On the rows entry.rows() selects (see the module docstring):

    g   <- grad + 2 * lam * theta
    m   <- beta1 * m + (1 - beta1) * g
    v   <- beta2 * v + (1 - beta2) * g^2
    theta <- theta - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)

    t counts steps, not the updates a row has had.
    """
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for k, entry in enumerate(registry):
        rows = entry.rows()
        theta = entry.values[rows]
        g = entry.grad[rows]
        if lam:
            g = g + 2.0 * lam * theta
        m = state.m[k][rows] * state.beta1 + (1.0 - state.beta1) * g
        v = state.v[k][rows] * state.beta2 + (1.0 - state.beta2) * (g * g)
        state.m[k][rows] = m
        state.v[k][rows] = v
        entry.values[rows] = theta - lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def batch_loss_and_grad(model, batch) -> float:
    """Mean logloss over the batch; mean gradient left in the registry.

    One forward and one backward pass over the whole batch: the backward
    pass sums the gradient over the rows, then it is scaled by 1 / B. The
    result is a pure function of the batch content.
    """
    model.zero_grad()
    probs, cache = model.forward(batch)
    model.backward(cache, batch.labels)
    model.registry.scale_grads(1.0 / len(batch))
    return logloss(probs, batch.labels)


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 4096
    l2: float = 1e-4
    epochs: int = 1
    seed: int = 0
    eval_every: int = 1  # epochs between validation passes; 0 disables
    shuffle: bool = True

    def validate(self) -> list[str]:
        problems = []
        if self.lr < 0 or not math.isfinite(self.lr):
            problems.append("lr: must be a finite number >= 0")
        if self.batch_size < 1:
            problems.append("batch_size: must be >= 1")
        if self.l2 < 0:
            problems.append("l2: must be >= 0")
        if self.epochs < 0:
            problems.append("epochs: must be >= 0")
        if self.eval_every < 0:
            problems.append("eval_every: must be >= 0")
        return problems


def fit(model, train: "data_mod.Dataset", config: TrainConfig,
        valid: "data_mod.Dataset | None" = None, callbacks=()) -> list[dict]:
    """Epochs of shuffled mini-batches with per-batch Adam updates.

    Returns (and streams to callbacks) one record per batch:
    {step, epoch, train_logloss, wall_ms}; on the validation cadence an
    extra record additionally carries val_auc / val_logloss. Epoch e is
    shuffled by default_rng((config.seed, e)).
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
                                         seed=(config.seed, epoch),
                                         shuffle=config.shuffle):
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
            report = evaluate(model, valid)
            emit({"step": step, "epoch": epoch,
                  "train_logloss": records[-1]["train_logloss"],
                  "val_auc": report.auc, "val_logloss": report.logloss,
                  "wall_ms": (time.perf_counter() - started) * 1e3})
    return records
