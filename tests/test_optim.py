import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcrossnet import cli, data, layers, metrics, optim, oracle
from xcrossnet.errors import DataError, NumericError
from xcrossnet.model import ModelConfig, ParamRegistry, XCrossNetModel

TINY = ModelConfig(dense_fields=4, sparse_fields=4, vocab_sizes=(4,) * 4,
                   embed_dim=4, product_size=4, cross_depth=2,
                   mlp_widths=(8,), seed=5)


def tiny_batch(rng, n=6, config=TINY):
    dense = rng.uniform(-1, 1, (n, config.dense_fields))
    sparse = np.column_stack([rng.integers(0, v, n) for v in config.vocab_sizes])
    labels = rng.integers(0, 2, n).astype(np.float64)
    return data.Dataset(dense, sparse, labels)


def fsum_logloss(preds, labels):
    terms = []
    for p, y in zip(preds, labels):
        p = min(max(p, 1e-7), 1 - 1e-7)
        terms.append(y * math.log(p) + (1 - y) * math.log1p(-p))
    return -math.fsum(terms) / len(terms)


class TestLogloss:
    def test_half_predictions_give_ln2(self):
        assert abs(metrics.logloss([0.5, 0.5], [1, 0]) - math.log(2)) < 1e-15

    def test_perfect_predictions_clamped(self):
        loss = metrics.logloss([1.0, 0.0], [1, 0])
        assert math.isfinite(loss)
        assert 0 < loss < 2e-7

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            preds = rng.uniform(0, 1, 64)
            labels = rng.integers(0, 2, 64).astype(float)
            a = metrics.logloss(preds, labels)
            b = fsum_logloss(preds, labels)
            assert abs(a - b) / abs(b) < 1e-12

    def test_empty_input(self):
        with pytest.raises(DataError):
            metrics.logloss([], [])

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=64),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_non_finite(self, preds, data_):
        labels = data_.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                     min_size=len(preds), max_size=len(preds)))
        assert math.isfinite(metrics.logloss(preds, labels))


class TestObjective:
    def test_objective_gradient_matches_finite_differences(self):
        # FD of loss + lam * ||theta||^2 vs backward grad + 2 lam theta
        lam = 0.05
        model, batch = oracle.gradcheck_point(TINY, seed=99)
        optim.batch_loss_and_grad(model, batch)
        analytic = model.registry.get_grad_flat() + \
            2.0 * lam * model.registry.values
        theta0 = model.registry.values.copy()

        def f(theta):
            model.registry.set_flat(theta)
            loss = metrics.logloss(model.forward(batch)[0], batch.labels)
            return loss + lam * float(np.sum(theta * theta))

        numeric = oracle.finite_diff(f, theta0)
        model.registry.set_flat(theta0)
        worst = max(oracle.relative_error(a, n)
                    for a, n in zip(analytic, numeric))
        assert worst < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        m = XCrossNetModel.init(TINY)
        before = m.registry.values.copy()
        assert not m.registry.get_grad_flat().any()  # a new registry's gradient
        state = optim.AdamState.init(m.registry)
        optim.adam_step(m.registry, state, lr=0.001, lam=0.0)
        assert np.array_equal(m.registry.values, before)

    def test_first_step_magnitude(self):
        # scalar parameter, g = 1: bias-corrected update is lr / (1 + eps)
        reg = ParamRegistry([("p", (1,))])
        value = reg["p"].values
        reg["p"].grad[0] = 1.0
        state = optim.AdamState.init(reg)
        optim.adam_step(reg, state, lr=0.001, lam=0.0)
        expected = -0.001 * 1.0 / (1.0 + 1e-8)
        assert abs(value[0] - expected) < 1e-15
        assert state.t == 1

    def test_determinism_over_steps(self):
        def run():
            m = XCrossNetModel.init(TINY)
            state = optim.AdamState.init(m.registry)
            batch = tiny_batch(np.random.default_rng(3))
            for _ in range(10):
                optim.batch_loss_and_grad(m, batch)
                optim.adam_step(m.registry, state, lr=0.01, lam=1e-4)
            return m.registry.values.copy()

        assert np.array_equal(run(), run())

    def test_second_moment_nonnegative_and_t_monotone(self):
        m = XCrossNetModel.init(TINY)
        state = optim.AdamState.init(m.registry)
        batch = tiny_batch(np.random.default_rng(4))
        for step in range(5):
            optim.batch_loss_and_grad(m, batch)
            optim.adam_step(m.registry, state, lr=0.01, lam=0.0)
            assert state.t == step + 1
            assert np.all(state.v >= 0)


def dense_adam_step(registry, m, v, t, lr, lam, lazy=False,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with coupled L2 as one out-of-place expression over the
    densified gradient and the flat moments m and v: plain Adam on every
    coordinate, or with lazy=True only on the dense entries and the
    embedding rows the batch looked up (LazyAdam)."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    values = registry.values
    keep = np.ones(values.size, dtype=bool)
    if lazy:
        _, block = registry.split(keep)
        block[...] = False
        block[registry.embed_rows] = True
    idx = np.flatnonzero(keep)
    theta = values[idx]
    g = registry.get_grad_flat()[idx]
    if lam:
        g = g + 2.0 * lam * theta
    m[idx] = m[idx] * beta1 + (1.0 - beta1) * g
    v[idx] = v[idx] * beta2 + (1.0 - beta2) * (g * g)
    values[idx] = theta - lr * (m[idx] / c1) / (np.sqrt(v[idx] / c2) + eps)


WIDE = ModelConfig(dense_fields=3, sparse_fields=3, vocab_sizes=(50, 40, 30),
                   embed_dim=3, product_size=3, cross_depth=1,
                   mlp_widths=(6,), seed=8)


class TestRowSparseUpdate:
    def test_touched_rows_match_dense_reference(self):
        # lambda = 0: each table's gradient equals a dense table built with
        # np.add.at over the per-row embedding gradients of the batched
        # stages, seeded with (p - y) / B, in row order; a previous batch's
        # rows are zeroed again
        m = XCrossNetModel.init(WIDE)
        rng = np.random.default_rng(12)
        optim.batch_loss_and_grad(m, tiny_batch(rng, n=8, config=WIDE))
        batch = tiny_batch(rng, n=9, config=WIDE)
        batch.sparse[:, 0] = np.minimum(batch.sparse[:, 0], 4)  # repeated ids
        optim.batch_loss_and_grad(m, batch)

        probs, cache = m.forward(batch)
        spare = XCrossNetModel(WIDE)  # its carriers take the recomputed dense gradients
        seed = (probs - batch.labels) * (1.0 / len(batch))
        gh0 = layers.mlp_backward_logit(cache.mlp, seed, m.mlp, spare.mlp_grad)
        gx0 = layers.concat_cross_backward(cache.concat, gh0, m.concat, spare.concat_grad)
        grad_e = layers.product_backward(cache.product, gx0[:, WIDE.dense_out_dim:],
                                         m.product, spare.product_grad)
        grad = m.registry.get_grad_flat()
        for f, vocab in enumerate(WIDE.vocab_sizes):
            expected = np.zeros((vocab, WIDE.embed_dim))
            np.add.at(expected, batch.sparse[:, f], grad_e[:, f])
            assert np.array_equal(m.registry[f"embed.field{f}"].view(grad), expected)
        # the compact gradient holds exactly the looked-up rows of each field
        assert np.array_equal(m.registry.embed_rows,
                              np.unique(batch.sparse + m.embedding.offsets))

    def test_untouched_rows_and_moments_do_not_move(self):
        m = XCrossNetModel.init(WIDE)
        state = optim.AdamState.init(m.registry)
        rng = np.random.default_rng(13)
        for _ in range(3):
            optim.batch_loss_and_grad(m, tiny_batch(rng, n=20, config=WIDE))
            optim.adam_step(m.registry, state, lr=0.01, lam=0.1)
        batch = tiny_batch(rng, n=4, config=WIDE)
        names = m.registry.names()
        before = [(e.values.copy(), e.view(state.m).copy(),
                   e.view(state.v).copy()) for e in m.registry]
        optim.batch_loss_and_grad(m, batch)
        optim.adam_step(m.registry, state, lr=0.01, lam=0.1)
        for f in range(WIDE.sparse_fields):
            k = names.index(f"embed.field{f}")
            values, mom1, mom2 = before[k]
            touched = np.zeros(len(values), dtype=bool)
            touched[batch.sparse[:, f]] = True
            entry = m.registry[names[k]]
            for old, new in ((values, entry.values), (mom1, entry.view(state.m)),
                             (mom2, entry.view(state.v))):
                assert np.array_equal(new[~touched], old[~touched])
                assert not np.any(new[touched] == old[touched])

    def test_every_row_touched_equals_dense_adam(self):
        # vocab 4 and a batch that looks up every id of every field: k lazy
        # steps give the bits of k plain Adam steps
        config = dataclasses.replace(TINY, vocab_sizes=(4,) * 4)
        rng = np.random.default_rng(14)
        lazy, dense = XCrossNetModel.init(config), XCrossNetModel.init(config)
        state = optim.AdamState.init(lazy.registry)
        m_ref = np.zeros(dense.registry.values.size)
        v_ref = np.zeros(dense.registry.values.size)
        for t in range(1, 6):
            batch = tiny_batch(rng, n=8, config=config)
            batch.sparse[:] = np.column_stack(
                [rng.permutation(np.arange(8) % 4) for _ in range(4)])
            optim.batch_loss_and_grad(lazy, batch)
            optim.adam_step(lazy.registry, state, lr=0.01, lam=1e-3)
            optim.batch_loss_and_grad(dense, batch)
            dense_adam_step(dense.registry, m_ref, v_ref, t, lr=0.01, lam=1e-3)
        assert np.array_equal(lazy.registry.values, dense.registry.values)
        assert np.array_equal(state.m, m_ref)
        assert np.array_equal(state.v, v_ref)

    def test_in_place_step_matches_the_expression_bitwise(self):
        # three steps at lambda > 0 with batches that miss most table rows:
        # the in-place dense pass and the gathered row pass give the bits
        # of the one-expression LazyAdam step, values and moments alike
        rng = np.random.default_rng(16)
        fast, ref = XCrossNetModel.init(WIDE), XCrossNetModel.init(WIDE)
        state = optim.AdamState.init(fast.registry)
        m_ref = np.zeros(ref.registry.values.size)
        v_ref = np.zeros(ref.registry.values.size)
        for t in range(1, 4):
            batch = tiny_batch(rng, n=6, config=WIDE)
            optim.batch_loss_and_grad(fast, batch)
            optim.adam_step(fast.registry, state, lr=0.01, lam=1e-4)
            optim.batch_loss_and_grad(ref, batch)
            dense_adam_step(ref.registry, m_ref, v_ref, t, lr=0.01, lam=1e-4, lazy=True)
        assert fast.registry.values.tobytes() == ref.registry.values.tobytes()
        assert state.m.tobytes() == m_ref.tobytes()
        assert state.v.tobytes() == v_ref.tobytes()
        untouched = v_ref == 0.0
        assert untouched.any() and not untouched.all()

    def test_step_memory_below_one_table(self):
        # a training step allocates O(batch) for the embedding, never a
        # vocab-sized table
        config = dataclasses.replace(WIDE, vocab_sizes=(100_000,) * 3)
        m = XCrossNetModel.init(config)
        state = optim.AdamState.init(m.registry)
        batch = tiny_batch(np.random.default_rng(15), n=64, config=config)
        table_bytes = m.registry["embed.field0"].values.nbytes
        tracemalloc.start()
        try:
            optim.batch_loss_and_grad(m, batch)
            optim.adam_step(m.registry, state, lr=0.01, lam=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes


class TestFit:
    def synth_small(self):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC,
                                   n_train=12_000, n_valid=4_000)
        sd = data.synth_generate(spec)
        return sd.train_dataset(), sd.valid_dataset()

    def test_zero_lr_keeps_parameters_and_loss(self):
        train, _ = self.synth_small()
        m = XCrossNetModel.init(TINY)
        before = m.registry.values.copy()
        cfg = optim.TrainConfig(lr=0.0, batch_size=1024, l2=0.0, epochs=2,
                                eval_every=0)
        log = optim.fit(m, train, cfg)
        assert np.array_equal(m.registry.values, before)
        # a frozen model: each record's loss is the logloss of the batch
        # that epoch's shuffle yields
        batches = [b for epoch in range(2)
                   for b in data.batch_iter(train, 1024, seed=(TINY.seed, epoch))]
        assert [r["train_logloss"] for r in log] == \
            [optim.logloss(m.forward(b)[0], b.labels) for b in batches]

    def test_validation_logloss_decreases_over_first_epochs(self):
        train, valid = self.synth_small()
        m = XCrossNetModel.init(TINY)
        cfg = optim.TrainConfig(lr=0.001, batch_size=512, l2=1e-4, epochs=3,
                                eval_every=1)
        log = optim.fit(m, train, cfg, valid=valid)
        vals = [r["val_logloss"] for r in log if "val_logloss" in r]
        assert len(vals) == 3
        for earlier, later in zip(vals, vals[1:]):
            assert later <= earlier + 0.002

    def test_single_instance_memorization(self):
        train, _ = self.synth_small()
        one = train.subset([0])
        m = XCrossNetModel.init(TINY)
        cfg = optim.TrainConfig(lr=0.001, batch_size=1, l2=0.0, epochs=2000,
                                eval_every=0)
        log = optim.fit(m, one, cfg)
        assert log[-1]["train_logloss"] < 0.01

    def test_non_finite_loss_raises(self):
        train, _ = self.synth_small()
        m = XCrossNetModel.init(TINY)
        flat = m.registry.values.copy()
        flat[0] = np.nan
        m.registry.set_flat(flat)
        cfg = optim.TrainConfig(lr=0.001, batch_size=256, epochs=1)
        with pytest.raises(NumericError):
            optim.fit(m, train, cfg)

    def test_empty_dataset(self):
        m = XCrossNetModel.init(TINY)
        empty = data.Dataset(np.zeros((0, 4)), np.zeros((0, 4), dtype=np.int64),
                             np.zeros(0))
        with pytest.raises(DataError):
            optim.fit(m, empty, optim.TrainConfig(epochs=1))

    def test_dimension_mismatch(self):
        m = XCrossNetModel.init(TINY)
        wrong = data.Dataset(np.zeros((4, 7)), np.zeros((4, 4), dtype=np.int64),
                             np.zeros(4))
        with pytest.raises(DataError):
            optim.fit(m, wrong, optim.TrainConfig(epochs=1))

    def test_log_record_schema(self):
        train, valid = self.synth_small()
        m = XCrossNetModel.init(TINY)
        cfg = optim.TrainConfig(lr=0.001, batch_size=4096, epochs=1, eval_every=1)
        seen = []
        optim.fit(m, train, cfg, valid=valid, callbacks=[seen.append])
        assert {"step", "epoch", "train_logloss", "wall_ms"} <= set(seen[0])
        assert "val_auc" in seen[-1] and "val_logloss" in seen[-1]
        steps = [r["step"] for r in seen]
        assert steps == sorted(steps)


def test_synth_model_learns_past_lr_toward_bayes():
    # the learning gate: 3 epochs of the `train --synth default` model on
    # the default synth task. Over data seeds 0-9 and 2024 the measured
    # gaps were AUC - LR 0.039-0.047 and Bayes - AUC 0.007-0.011; the
    # margins leave room for that spread, not for a model that stops
    # learning the planted crosses
    run = cli.RUN_DEFAULTS["synth"]
    sd = data.synth_generate(data.DEFAULT_SYNTH_SPEC)
    train, valid = sd.train_dataset(), sd.valid_dataset()
    config = ModelConfig(
        dense_fields=train.n_dense, sparse_fields=train.n_sparse,
        vocab_sizes=sd.vocab().sizes(), embed_dim=run["embed_dim"],
        product_size=run["product_size"], cross_depth=run["cross_depth"],
        mlp_widths=run["mlp_widths"], seed=run["seed"])
    model = XCrossNetModel.init(config)
    optim.fit(model, train, optim.TrainConfig(
        lr=run["lr"], batch_size=run["batch_size"], l2=run["l2"], epochs=3))
    val_auc = metrics.evaluate(metrics.predict_dataset(model, valid), valid.labels).auc
    assert val_auc - oracle.lr_baseline_auc(train, valid) >= 0.025
    assert metrics.auc(sd.scores[len(train):], valid.labels) - val_auc <= 0.02
