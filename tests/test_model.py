import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from xcrossnet import data, layers, metrics, optim, oracle
from xcrossnet import model as model_mod
from xcrossnet.errors import CheckpointError, DataError, DimensionError
from xcrossnet.model import (ModelConfig, XCrossNetModel, balance_index,
                             load_checkpoint, save_checkpoint)

SMALL = ModelConfig(dense_fields=3, sparse_fields=4, vocab_sizes=(5, 5, 5, 5),
                    embed_dim=5, product_size=6, cross_depth=2,
                    mlp_widths=(8,), seed=11)

CRITEO = ModelConfig.criteo_default(vocab_sizes=(3,) * 26)

# the float64 reference, for the tests that check float64 bits or rounding
SMALL64 = dataclasses.replace(SMALL, dtype="float64")


def random_batch(config, rng, n=4):
    dense = rng.uniform(-1, 1, (n, config.dense_fields))
    sparse = np.column_stack([rng.integers(0, v, n) for v in config.vocab_sizes])
    labels = rng.integers(0, 2, n).astype(np.float64)
    return data.Dataset(dense, sparse, labels)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = XCrossNetModel.init(SMALL)
        b = XCrossNetModel.init(SMALL)
        assert np.array_equal(a.registry.values, b.registry.values)

    def test_init_matches_per_array_reference_draws(self):
        # the draws the layers made before the flat layout: one rng.normal
        # or rng.uniform per array, in registry order; float32 rounds them
        for config, dtype in itertools.product((SMALL, CRITEO), ("float64", "float32")):
            config = dataclasses.replace(config, dtype=dtype)
            rng = np.random.default_rng(config.seed)
            want = []
            for l in range(config.cross_depth):
                want += [rng.normal(0.0, 0.01, config.dense_fields),
                         np.zeros(config.dense_fields)]
            want += [rng.normal(0.0, 0.01, (v, config.embed_dim))
                     for v in config.vocab_sizes]
            t, n, k = config.product_size, config.sparse_fields, config.embed_dim
            want += [rng.normal(0.0, 0.01, (t, n)), rng.normal(0.0, 0.01, (t, n, k)),
                     rng.normal(0.0, 0.01, config.x0_dim), np.zeros(config.x0_dim)]
            fan_in = config.mlp_input_dim
            for width in config.mlp_widths:
                bound = np.sqrt(6.0 / (fan_in + width))
                want += [rng.uniform(-bound, bound, (width, fan_in)), np.zeros(width)]
                fan_in = width
            bound = np.sqrt(6.0 / (fan_in + 1))
            want += [rng.uniform(-bound, bound, fan_in), np.zeros(1)]
            got = [e.values for e in XCrossNetModel.init(config).registry]
            assert [g.tobytes() for g in got] == [w.astype(dtype).tobytes() for w in want]

    def test_init_allocates_no_table_sized_gradient(self):
        # vocab 10^5 x 3: the values are the only table-sized allocation
        # of a float64 model, which draws straight into them
        config = dataclasses.replace(SMALL64, sparse_fields=3, vocab_sizes=(100_000,) * 3)
        tracemalloc.start()
        try:
            m = XCrossNetModel.init(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = m.registry["embed.field0"].values.nbytes
        assert m.registry.values.nbytes <= peak < m.registry.values.nbytes + table_bytes
        assert m.registry.grad.nbytes < table_bytes
        assert m.registry.embed_grad.nbytes < table_bytes

    def test_different_seed_differs(self):
        other = dataclasses.replace(SMALL, seed=12)
        a = XCrossNetModel.init(SMALL)
        b = XCrossNetModel.init(other)
        assert not np.array_equal(a.registry.values, b.registry.values)

    def test_criteo_dimension_arithmetic(self):
        assert CRITEO.dense_out_dim == 13 * 5 == 65
        assert CRITEO.x0_dim == 13 * 5 + 200 == 265
        assert CRITEO.mlp_input_dim == 530

    def test_stage_param_counts(self):
        m = XCrossNetModel.init(CRITEO)
        counts = m.num_parameters()
        assert counts["cross"] == 2 * 13 * 4 == 104
        assert counts["embedding"] == 20 * sum(CRITEO.vocab_sizes)
        assert counts["concat"] == 2 * (13 * 5 + 2 * 100)
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    @pytest.mark.parametrize("field, value", [
        ("dense_fields", 2.5), ("embed_dim", True), ("seed", "0"),
        ("vocab_sizes", (5, 5, 5.0, 5)), ("mlp_widths", (8.5,)),
    ])
    def test_wrongly_typed_config_rejected(self, field, value):
        bad = dataclasses.replace(SMALL, **{field: value})
        problems = bad.validate()
        assert len(problems) == 1 and problems[0].startswith(f"{field}:")
        assert getattr(bad, field) == value  # kept as given, not truncated

    def test_invalid_config_reports_all_problems(self):
        bad = ModelConfig(dense_fields=0, sparse_fields=2, vocab_sizes=(1,),
                          embed_dim=0, product_size=1, cross_depth=1,
                          mlp_widths=(0,))
        problems = bad.validate()
        assert len(problems) >= 4
        with pytest.raises(ValueError):
            XCrossNetModel.init(bad)


class TestRegistry:
    def test_documented_ordering(self):
        m = XCrossNetModel.init(SMALL)
        names = m.registry.names()
        assert names == (
            ["cross.w0", "cross.b0", "cross.w1", "cross.b1"]
            + [f"embed.field{i}" for i in range(4)]
            + ["product.theta", "product.order1", "concat.w", "concat.b",
               "mlp.w0", "mlp.b0", "mlp.out_w", "mlp.out_b"])

    def test_flat_roundtrip(self):
        m = XCrossNetModel.init(SMALL)
        flat = m.registry.values.copy()
        assert flat.shape == (m.num_parameters()["total"],)
        rng = np.random.default_rng(0)
        new = rng.normal(size=flat.shape).astype(flat.dtype)
        m.registry.set_flat(new)
        assert np.array_equal(m.registry.values, new)
        # registry views alias the layer arrays
        assert m.cross.weights[0][0] == new[0]

    def test_set_flat_wrong_size(self):
        m = XCrossNetModel.init(SMALL)
        with pytest.raises(DimensionError):
            m.registry.set_flat(np.zeros(3))

    def test_layer_arrays_are_views_of_the_value_vector(self):
        m = XCrossNetModel.init(SMALL)
        values = m.registry.values
        arrays = [*m.cross.weights, *m.cross.biases, m.embedding.table,
                  m.product.theta, m.product.order1, *m.concat.weights, *m.concat.biases,
                  *m.mlp.weights, *m.mlp.biases, m.mlp.out_weight, m.mlp.out_bias]
        assert sum(a.size for a in arrays) == values.size
        for a in arrays + [e.values for e in m.registry]:
            assert np.shares_memory(a, values)
        for e in m.registry:
            assert e.grad is None or np.shares_memory(e.grad, m.registry.grad)
        # the dense gradient covers every entry but the embedding tables
        embed = sum(e.values.size for e in m.registry if e.name.startswith("embed."))
        assert m.registry.grad.size == values.size - embed
        # split and view find the same parts of any vector laid out like values
        m.registry.set_flat(np.arange(values.size, dtype=np.float64))
        flat = m.registry.values.copy()
        for e in m.registry:
            assert np.array_equal(e.view(flat), e.values)
        dense, block = m.registry.split(flat)
        want = [e.values.ravel() for e in m.registry if e.grad is not None]
        assert np.array_equal(dense, np.concatenate(want))
        assert dense.size == m.registry.grad.size
        assert np.array_equal(block, m.embedding.table)

    def test_dense_entries_lead_and_the_block_is_the_tail(self):
        # numbering values and grad alike gives each dense entry the same
        # numbers in both: the same offset
        reg = XCrossNetModel(SMALL).registry
        reg.set_flat(np.arange(reg.values.size, dtype=np.float64))
        reg.grad[...] = np.arange(reg.grad.size)
        dense = [e for e in reg if e.grad is not None]
        assert np.array_equal(reg.split(reg.values)[0],
                              np.concatenate([e.values.ravel() for e in dense]))
        for e in dense:
            assert np.array_equal(e.values, e.grad)
        assert np.array_equal(reg.embed_block.ravel(),
                              np.arange(reg.grad.size, reg.values.size))
        tables = [e.values.ravel() for e in reg if e.grad is None]
        assert np.array_equal(np.concatenate(tables), reg.embed_block.ravel())

    def test_stage_gradients_tile_the_gradient_vector(self):
        # the backward passes' carriers are views of registry.grad that
        # cover it exactly once, in registry order: numbering its elements
        # numbers the carriers' arrays in that order
        m = XCrossNetModel(CRITEO)
        grad = m.registry.grad
        cross, product, concat, mlp = m.cross_grad, m.product_grad, m.concat_grad, m.mlp_grad
        arrays = [*sum(zip(cross.weights, cross.biases), ()), product.theta, product.order1,
                  *concat.weights, *concat.biases, *sum(zip(mlp.weights, mlp.biases), ()),
                  mlp.out_weight, mlp.out_bias]
        assert all(np.shares_memory(a, grad) for a in arrays)
        grad[...] = np.arange(grad.size)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), np.arange(grad.size))
        entries = [e.grad for e in m.registry if e.grad is not None]
        assert [a.shape for a in arrays] == [g.shape for g in entries]


class TestForwardBackward:
    def test_zero_model_predicts_half(self):
        m = XCrossNetModel(SMALL)
        batch = random_batch(SMALL, np.random.default_rng(1), n=3)
        probs, _ = m.forward(batch)
        assert np.array_equal(probs, [0.5, 0.5, 0.5])

    def test_forward_is_pure(self):
        m = XCrossNetModel.init(SMALL)
        batch = random_batch(SMALL, np.random.default_rng(2), n=3)
        p1, _ = m.forward(batch)
        p2, _ = m.forward(batch)
        assert np.array_equal(p1, p2)

    def test_batch_forward_matches_rows_one_at_a_time(self):
        m = XCrossNetModel.init(SMALL64)
        m.registry.set_flat(np.random.default_rng(8).uniform(
            -0.3, 0.3, m.registry.values.size))
        batch = random_batch(SMALL, np.random.default_rng(9), n=17)
        probs, cache = m.forward(batch)
        assert probs.shape == (17,)
        for i in range(len(batch)):
            one, one_cache = m.forward(batch.subset([i]))
            assert abs(one[0] - probs[i]) <= 1e-12 * abs(probs[i])
            assert abs(one_cache.mlp.logits[0] - cache.mlp.logits[i]) <= \
                1e-12 * max(abs(cache.mlp.logits[i]), 1.0)

    def test_logit_gradient_is_prob_minus_label(self):
        m = XCrossNetModel.init(SMALL64)
        batch = random_batch(SMALL, np.random.default_rng(3), n=1)
        probs, cache = m.forward(batch)
        m.backward(cache, [1.0])
        # out_bias sees the logit gradient directly
        assert m.registry["mlp.out_b"].grad[0] == probs[0] - 1.0

    def test_backward_seeds_the_mean_gradient(self):
        # backward starts from (p - y) / B; at B = 8, a power of two, every
        # gradient is bitwise 1/8 of what the stages give from p - y itself
        m = XCrossNetModel.init(SMALL)
        m.registry.set_flat(np.random.default_rng(14).uniform(
            -0.3, 0.3, m.registry.values.size))
        batch = random_batch(SMALL, np.random.default_rng(15), n=8)
        m.backward(m.forward(batch)[1], batch.labels)

        probs, cache = m.forward(batch)
        spare = XCrossNetModel(SMALL)
        g = layers.mlp_backward_logit(cache.mlp, probs - batch.labels, m.mlp, spare.mlp_grad)
        g = layers.concat_cross_backward(cache.concat, g, m.concat, spare.concat_grad)
        split = SMALL.dense_out_dim
        layers.cross_backward(cache.cross, g[:, :split], m.cross, spare.cross_grad)
        grad_e = layers.product_backward(cache.product, g[:, split:], m.product,
                                         spare.product_grad)
        rows, embed_grad = layers.embed_backward(cache.embed, grad_e, m.embedding)
        assert np.array_equal(m.registry.grad, spare.registry.grad * (1.0 / 8))
        assert np.array_equal(m.registry.embed_rows, rows)
        assert np.array_equal(m.registry.embed_grad, embed_grad * (1.0 / 8))

    def test_saturated_correct_prediction_has_tiny_gradient(self):
        m = XCrossNetModel.init(SMALL)
        m.registry["mlp.out_b"].values[0] = 40.0  # force prob ~ 1
        batch = random_batch(SMALL, np.random.default_rng(4), n=1)
        _, cache = m.forward(batch)
        m.backward(cache, [1.0])
        assert abs(m.registry["mlp.out_b"].grad[0]) < 1e-12

    def test_concat_stage_matches_the_closed_form_bitwise(self):
        # the concat stage, a depth-one CrossStack over X0 = [OC, OP], has
        # the bits of its formulas written out: x1 = x0 * s + b with
        # s = <x0, w>, dw = X0^T ds, db = sum G1, dX0 = G0 + G1 * s + ds * w,
        # from the logit gradient (p - y) / B; dX0 splits at dense_out_dim
        # into the two stages' gradients
        m = XCrossNetModel.init(CRITEO)
        rng = np.random.default_rng(13)
        m.registry["concat.b"].values[...] = rng.normal(0.0, 0.01, CRITEO.x0_dim)
        batch = random_batch(CRITEO, rng, n=16)
        _, cache = m.forward(batch)
        m.backward(cache, batch.labels)

        oc, _ = layers.cross_forward(batch.dense, m.cross)
        op, _ = layers.product_forward(layers.embed_forward(batch.sparse, m.embedding)[0],
                                       m.product)
        x0 = np.concatenate([oc, op], axis=1)
        w, b = m.registry["concat.w"].values, m.registry["concat.b"].values
        s = x0 @ w
        x1 = x0 * s[:, None] + b
        assert np.array_equal(cache.mlp.hiddens[0], np.concatenate([x0, x1], axis=1))

        spare = XCrossNetModel(CRITEO)
        seed = (cache.mlp.probs - batch.labels) * (1.0 / len(batch))
        g = layers.mlp_backward_logit(cache.mlp, seed, m.mlp, spare.mlp_grad)
        dim = CRITEO.x0_dim
        g0, g1 = g[:, :dim], g[:, dim:]
        ds = np.einsum("bd,bd->b", g1, x0)
        assert np.array_equal(m.registry["concat.w"].grad, x0.T @ ds)
        assert np.array_equal(m.registry["concat.b"].grad, g1.sum(axis=0))
        grad_x0 = g0 + g1 * s[:, None] + ds[:, None] * w
        assert np.array_equal(
            layers.concat_cross_backward(cache.concat, g, m.concat, spare.concat_grad), grad_x0)
        split = CRITEO.dense_out_dim
        layers.cross_backward(cache.cross, grad_x0[:, :split], m.cross, spare.cross_grad)
        layers.product_backward(cache.product, grad_x0[:, split:], m.product,
                                spare.product_grad)
        for name in ("cross.w0", "cross.b3", "product.theta", "product.order1"):
            assert np.array_equal(m.registry[name].grad, spare.registry[name].grad)

    def test_backward_makes_no_gradient_sized_allocation(self):
        # the stages write their parameter gradients into the registry in
        # place: at the Criteo topology (B = 8) a backward pass allocates
        # a small part of the 3.4 MB dense gradient, not another copy of it
        config = ModelConfig.criteo_default((1000,) * 26)
        m = XCrossNetModel.init(config)
        batch = random_batch(config, np.random.default_rng(12), n=8)
        _, cache = m.forward(batch)
        tracemalloc.start()
        try:
            m.backward(cache, batch.labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.registry.grad.nbytes / 4

    @pytest.fixture(scope="class")
    def criteo_rows(self):
        # float64, whose figures the bounds below were set from
        config = dataclasses.replace(ModelConfig.criteo_default((1000,) * 26), dtype="float64")
        return XCrossNetModel.init(config), random_batch(config, np.random.default_rng(13),
                                                         n=4 * metrics.PREDICT_CHUNK)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_keeps_no_full_size_temporaries(self, criteo_rows):
        # at the Criteo topology U (T x B*K) alone is 8.2 MB for 512 rows:
        # the bound holds only if neither U nor the MLP pre-activations
        # outlive the forward pass (with both kept it peaks at 23.7 MB)
        m, rows = criteo_rows
        chunk = rows.subset(slice(0, metrics.PREDICT_CHUNK))
        assert self.traced_peak(lambda: m.forward(chunk)) <= 16e6

    def test_predict_holds_one_chunk_at_a_time(self, criteo_rows):
        # predicting four chunks peaks as one forward does; a chunk's cache
        # kept alive through the next chunk's forward about doubles it
        m, rows = criteo_rows
        chunk = rows.subset(slice(0, metrics.PREDICT_CHUNK))
        one = self.traced_peak(lambda: m.forward(chunk))
        assert self.traced_peak(lambda: metrics.predict_dataset(m, rows)) <= 1.1 * one

    def test_batch_gradient_is_mean_of_instances(self):
        # the batched back half sums rows inside GEMMs, in an order of its
        # own, so the batch gradient matches the mean of B = 1 gradients to
        # float64 rounding, not bit for bit
        m = XCrossNetModel.init(SMALL64)
        m.registry.set_flat(np.random.default_rng(10).uniform(
            -0.3, 0.3, m.registry.values.size))
        batch = random_batch(SMALL, np.random.default_rng(5), n=7)
        optim.batch_loss_and_grad(m, batch)
        batched = m.registry.get_grad_flat()

        manual = np.zeros_like(batched)
        for i in range(len(batch)):
            _, cache = m.forward(batch.subset([i]))
            m.backward(cache, batch.labels[i:i + 1])
            manual += m.registry.get_grad_flat()
        manual *= 1.0 / len(batch)
        assert np.max(np.abs(batched - manual)) <= 1e-12 * np.max(np.abs(manual))

    def test_gradient_reduction_order_invariance(self):
        # a batch's rows are summed inside GEMMs, so permuting them may
        # change the rounding of the mean gradient but not its value; the
        # same batch in the same order gives the same bits
        m = XCrossNetModel.init(SMALL64)
        m.registry.set_flat(np.random.default_rng(11).uniform(
            -0.3, 0.3, m.registry.values.size))
        batch = random_batch(SMALL, np.random.default_rng(6), n=9)
        optim.batch_loss_and_grad(m, batch)
        first = m.registry.get_grad_flat()
        optim.batch_loss_and_grad(m, batch)
        assert np.array_equal(m.registry.get_grad_flat(), first)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(batch))
            optim.batch_loss_and_grad(m, batch.subset(order))
            permuted = m.registry.get_grad_flat()
            assert np.max(np.abs(permuted - first)) <= 1e-12 * np.max(np.abs(first))

    def test_full_model_gradcheck(self):
        model, batch = oracle.gradcheck_point(SMALL, seed=1234)
        worst = oracle.gradcheck_model(model, batch)
        assert max(worst.values()) < 1e-4

    def test_gradcheck_flags_small_coordinates(self, monkeypatch):
        # a backward pass that drops the gradient coordinates below 1e-7
        # fails: only differences within the central differences' rounding
        # (4.4e-11 here) are forgiven, not coordinates 1e-4 below their
        # group's largest (4.9e-3 in mlp.w0)
        config = ModelConfig(dense_fields=3, sparse_fields=4, vocab_sizes=(5,) * 4,
                             embed_dim=5, product_size=6, cross_depth=2,
                             mlp_widths=(16, 8), seed=4)
        model, batch = oracle.gradcheck_point(config, seed=4, instances=6)
        assert max(oracle.gradcheck_model(model, batch).values()) < 1e-4
        backward = model.backward

        def lossy_backward(cache, labels):
            backward(cache, labels)
            grad = model.registry.grad
            grad[np.abs(grad) < 1e-7] = 0.0

        monkeypatch.setattr(model, "backward", lossy_backward)
        assert oracle.gradcheck_model(model, batch)["mlp.w0"] == 1.0

    def test_dimension_fuzzing(self):
        m = XCrossNetModel.init(SMALL)
        rng = np.random.default_rng(7)

        def one_row(dense, sparse):
            return data.Dataset(dense[None, :], sparse[None, :], np.zeros(1))

        with pytest.raises(DimensionError):
            m.forward(one_row(rng.normal(size=5), np.zeros(4, dtype=np.int64)))
        with pytest.raises(DimensionError):
            m.forward(one_row(rng.normal(size=3), np.zeros(2, dtype=np.int64)))
        with pytest.raises(DataError):
            m.forward(one_row(rng.normal(size=3), np.array([0, 0, 0, 9])))


class TestCheckpoint:
    def test_bitwise_roundtrip(self, tmp_path):
        m = XCrossNetModel.init(SMALL)
        path = tmp_path / "model.xcn"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.registry.values, m.registry.values)
        assert loaded.config == m.config
        # saving the loaded model reproduces the same bytes
        path2 = tmp_path / "model2.xcn"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bytes_match_the_copying_writer(self, tmp_path):
        # version-2 bytes: the header line, then each entry's values
        # little-endian in the config's dtype, in registry order
        for config, stored in ((SMALL, "<f4"), (SMALL64, "<f8")):
            m = XCrossNetModel.init(config)
            path = tmp_path / "model.xcn"
            save_checkpoint(m, path)
            header = {"format": "xcrossnet-checkpoint", "version": 2,
                      "config": dataclasses.asdict(m.config),
                      "param_counts": m.num_parameters(), "registry": m.registry.names()}
            want = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + \
                b"".join(e.values.astype(stored).tobytes() for e in m.registry)
            assert path.read_bytes() == want

    def test_each_entry_loads_its_registry_order_slice(self, tmp_path):
        # files built by hand whose payload numbers the values: version 1,
        # whose config has no dtype and whose payload is float64, and
        # version 2 in float32
        for version, dtype in ((1, "float64"), (2, "float32")):
            m = XCrossNetModel(dataclasses.replace(SMALL, dtype=dtype))
            config = dataclasses.asdict(m.config)
            if version == 1:
                del config["dtype"]
            header = {"format": "xcrossnet-checkpoint", "version": version, "config": config,
                      "param_counts": m.num_parameters(), "registry": m.registry.names()}
            path = tmp_path / "model.xcn"
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + np.arange(
                m.registry.values.size, dtype=np.dtype(dtype).newbyteorder("<")).tobytes())
            loaded = load_checkpoint(path)
            assert loaded.config == m.config
            at = 0
            for e in loaded.registry:
                assert e.values.dtype == dtype
                assert np.array_equal(e.values.ravel(), np.arange(at, at + e.values.size))
                at += e.values.size
            assert at == m.registry.values.size

    def test_truncated_blob(self, tmp_path):
        # a payload 16 bytes short or 8 bytes long is refused
        m = XCrossNetModel.init(SMALL)
        path = tmp_path / "model.xcn"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        for bad in (blob[:-16], blob + bytes(8)):
            (tmp_path / "bad.xcn").write_bytes(bad)
            with pytest.raises(CheckpointError, match="bytes"):
                load_checkpoint(tmp_path / "bad.xcn")

    def test_unknown_version(self, tmp_path):
        m = XCrossNetModel.init(SMALL)
        path = tmp_path / "model.xcn"
        save_checkpoint(m, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        patched = header.replace(b'"version": 2', b'"version": 99')
        assert patched != header
        (tmp_path / "bad.xcn").write_bytes(patched + b"\n" + blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.xcn")

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        m = XCrossNetModel.init(SMALL)
        path = tmp_path / "model.xcn"
        save_checkpoint(m, path)
        before = path.read_bytes()
        m.registry.set_flat(np.ones(m.registry.values.size))

        class TornFile:
            """Writes a prefix of the first chunk, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.f.write(chunk[:10])
                raise OSError("no space left on device")

        monkeypatch.setattr(model_mod, "open",
                            lambda *a, **k: TornFile(open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(m, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.xcn"]

    @pytest.mark.parametrize("name, index, value", [
        ("embed.field2", (3, 1), np.nan), ("mlp.w0", (0, 0), -np.inf)])
    def test_non_finite_value_is_refused_naming_its_entry(self, tmp_path, name, index, value):
        m = XCrossNetModel.init(SMALL)
        m.registry[name].values[index] = value
        save_checkpoint(m, tmp_path / "bad.xcn")
        with pytest.raises(CheckpointError, match=f"parameter {name} holds a non-finite value"):
            load_checkpoint(tmp_path / "bad.xcn")

    def test_garbage_header(self, tmp_path):
        (tmp_path / "bad.xcn").write_bytes(b"\x00\x01\x02 not json\n1234")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.xcn")


class TestBalanceIndex:
    def test_criteo_both_conventions(self):
        cfg = ModelConfig(dense_fields=13, sparse_fields=26, vocab_sizes=(2,) * 26,
                          product_size=100, cross_depth=4)
        assert abs(balance_index(cfg)["cross_only"] - 0.52) < 1e-15
        assert abs(balance_index(cfg)["include_input"] - 0.65) < 1e-15

    def test_symmetric_config_gives_one(self):
        # equal field counts and equal branch widths
        cfg = ModelConfig(dense_fields=4, sparse_fields=4, vocab_sizes=(3,) * 4,
                          product_size=4, cross_depth=1)
        assert balance_index(cfg)["include_input"] == 1.0
