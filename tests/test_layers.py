import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcrossnet import layers, oracle
from xcrossnet.errors import DataError, DimensionError
from xcrossnet.model import ModelConfig, XCrossNetModel


def rel_err(a, b, floor=1e-10):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        if abs(x) < floor and abs(y) < floor:
            continue
        out = max(out, abs(x - y) / max(abs(x), abs(y)))
    return out


def assert_normwise_close(got, want, tol=1e-12):
    # bounded relative to the largest entry: an entry that comes from
    # cancellation has an ill-conditioned relative error of its own
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def carrier(stage):
    """A gradient carrier for stage: the same dataclass over NaN arrays, so
    that a gradient the backward pass does not write shows."""
    return type(stage)(*(
        [np.full_like(a, np.nan) for a in v] if isinstance(v, list) else np.full_like(v, np.nan)
        for v in (getattr(stage, f.name) for f in dataclasses.fields(stage))))


def backward(fn, cache, grad_out, stage):
    """fn's input gradient(s) and the parameter gradients it wrote into a
    fresh carrier."""
    grads = carrier(stage)
    return fn(cache, grad_out, stage, grads), grads


def random_stack(rng, m, depth, scale=1.0, zero_bias=False):
    weights = [rng.uniform(-scale, scale, m) for _ in range(depth)]
    biases = [np.zeros(m) if zero_bias else rng.uniform(-scale, scale, m)
              for _ in range(depth)]
    return layers.CrossStack(weights, biases)


batch_shapes = dict(rows=st.integers(min_value=1, max_value=9),
                    seed=st.integers(min_value=0, max_value=2 ** 31 - 1))


# ---------------------------------------------------------------------------
# cross stack
# ---------------------------------------------------------------------------


class TestCrossForward:
    def test_worked_example(self):
        stack = layers.CrossStack([np.array([1.0, 1.0])], [np.zeros(2)])
        out, cache = layers.cross_forward(np.array([[1.0, 2.0], [0.5, -1.0]]), stack)
        assert np.array_equal(out, np.array([[1.0, 2.0, 3.0, 6.0],
                                             [0.5, -1.0, -0.25, 0.5]]))
        assert np.array_equal(cache.scalars[0], [3.0, -0.5])

    def test_zero_weights_zero_bias(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(4, 5))
        stack = layers.CrossStack([np.zeros(5)] * 3, [np.zeros(5)] * 3)
        out, _ = layers.cross_forward(d, stack)
        assert np.array_equal(out[:, :5], d)
        assert np.array_equal(out[:, 5:], np.zeros((4, 15)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        stack = random_stack(rng, 5, 3)
        d = rng.uniform(-1, 1, (6, 5))
        fast, _ = layers.cross_forward(d, stack)
        for row in range(6):
            assert rel_err(fast[row], oracle.naive_cross_forward(d[row], stack)) < 1e-12

    def test_dim_mismatch(self):
        stack = random_stack(np.random.default_rng(2), 4, 2)
        with pytest.raises(DimensionError):
            layers.cross_forward(np.zeros((2, 3)), stack)
        with pytest.raises(DimensionError):
            layers.cross_forward(np.zeros(4), stack)

    def test_output_dim(self):
        rng = np.random.default_rng(3)
        for rows, m, depth in [(1, 1, 1), (5, 3, 4), (2, 7, 2)]:
            stack = random_stack(rng, m, depth)
            out, _ = layers.cross_forward(rng.normal(size=(rows, m)), stack)
            assert out.shape == (rows, m * (depth + 1))


class TestCrossBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        stack = random_stack(rng, 3, 2)
        _, cache = layers.cross_forward(rng.normal(size=(2, 3)), stack)
        gd, grads = backward(layers.cross_backward, cache, np.zeros((2, 9)), stack)
        assert np.array_equal(gd, np.zeros((2, 3)))
        for w, b in zip(grads.weights, grads.biases):
            assert np.array_equal(w, np.zeros(3))
            assert np.array_equal(b, np.zeros(3))

    def test_single_layer_hand_formula(self):
        # gradient only on C_1: dw = sum_b <g_b, d_b> * d_b, db = sum_b g_b
        rng = np.random.default_rng(5)
        rows, m = 3, 4
        stack = random_stack(rng, m, 1)
        d = rng.normal(size=(rows, m))
        g = rng.normal(size=(rows, m))
        _, cache = layers.cross_forward(d, stack)
        upstream = np.concatenate([np.zeros((rows, m)), g], axis=1)
        _, grads = backward(layers.cross_backward, cache, upstream, stack)
        want = sum(np.dot(g[b], d[b]) * d[b] for b in range(rows))
        assert np.allclose(grads.weights[0], want, rtol=1e-14)
        assert np.array_equal(grads.biases[0], g.sum(axis=0))

    def test_finite_differences(self):
        # a batch of 3 rows: parameter gradients are summed over the rows
        rng = np.random.default_rng(6)
        rows, m, depth = 3, 4, 3
        stack = random_stack(rng, m, depth)
        d = rng.uniform(-1, 1, (rows, m))
        g = rng.normal(size=(rows, m * (depth + 1)))

        def pack(d_, st):
            return np.concatenate([d_.ravel()] + st.weights + st.biases)

        def unpack(theta):
            parts = np.split(theta, np.cumsum([rows * m] + [m] * (2 * depth - 1)))
            return parts[0].reshape(rows, m), layers.CrossStack(
                parts[1:1 + depth], parts[1 + depth:])

        def f(theta):
            d_, st = unpack(theta)
            out, _ = layers.cross_forward(d_, st)
            return float(np.sum(out * g))

        _, cache = layers.cross_forward(d, stack)
        gd, grads = backward(layers.cross_backward, cache, g, stack)
        analytic = pack(gd, grads)
        numeric = oracle.finite_diff(f, pack(d, stack))
        assert rel_err(analytic, numeric) < 1e-6

    def test_grad_shape_mismatch(self):
        rng = np.random.default_rng(21)
        stack = random_stack(rng, 3, 2)
        _, cache = layers.cross_forward(rng.normal(size=(2, 3)), stack)
        with pytest.raises(DimensionError):
            layers.cross_backward(cache, np.zeros(9), stack, carrier(stack))

    def test_param_count_identity(self):
        # 2 * M * L: one weight and one bias vector per layer
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            depth = int(rng.integers(1, 7))
            config = ModelConfig(dense_fields=m, sparse_fields=1, vocab_sizes=(2,),
                                 embed_dim=1, product_size=1, cross_depth=depth,
                                 mlp_widths=())
            assert XCrossNetModel(config).num_parameters()["cross"] == 2 * m * depth


@given(m=st.integers(min_value=1, max_value=6),
       depth=st.integers(min_value=1, max_value=4), **batch_shapes)
@settings(max_examples=30, deadline=None)
def test_cross_batch_matches_rows_one_at_a_time(m, depth, rows, seed):
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, m, depth)
    d = rng.uniform(-1, 1, (rows, m))
    g = rng.normal(size=(rows, m * (depth + 1)))
    out, cache = layers.cross_forward(d, stack)
    gd, grads = backward(layers.cross_backward, cache, g, stack)
    one = [layers.cross_forward(d[r:r + 1], stack) for r in range(rows)]
    back = [backward(layers.cross_backward, c, g[r:r + 1], stack)
            for r, (_, c) in enumerate(one)]
    assert_normwise_close(out, np.concatenate([o for o, _ in one]))
    assert_normwise_close(gd, np.concatenate([b[0] for b in back]))
    for l in range(depth):
        assert_normwise_close(grads.weights[l], sum(b[1].weights[l] for b in back))
        assert_normwise_close(grads.biases[l], sum(b[1].biases[l] for b in back))


def test_polynomial_scalar_chain():
    # zero biases: every row's last cached scalar is the product of the
    # per-layer linear forms <d, w_i>, a degree-(depth) polynomial identity
    rng = np.random.default_rng(8)
    for depth in range(1, 8):
        m = int(rng.integers(1, 5))
        stack = random_stack(rng, m, depth, zero_bias=True)
        d = rng.uniform(-1, 1, (4, m))
        _, cache = layers.cross_forward(d, stack)
        for row in range(4):
            product = 1.0
            for w in stack.weights:
                product *= float(d[row] @ w)
            assert rel_err(cache.scalars[-1][row], product, floor=1e-300) < 1e-10


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_lookup(self):
        emb = layers.Embedding(np.array([[0.1, 0.2], [0.3, 0.4]]), (2,))
        e, _ = layers.embed_forward(np.array([[1], [0], [1]]), emb)
        assert np.array_equal(e, np.array([[[0.3, 0.4]], [[0.1, 0.2]], [[0.3, 0.4]]]))

    def test_zero_table(self):
        emb = layers.Embedding(np.zeros((6, 3)), (4, 2))
        e, _ = layers.embed_forward(np.array([[3, 1], [0, 0]]), emb)
        assert np.array_equal(e, np.zeros((2, 2, 3)))

    def test_out_of_vocab(self):
        # a bad id in any row raises, naming its field
        emb = layers.Embedding(np.zeros((11, 3)), (4, 2, 5))
        for row, field, bad_id in [(0, 0, 4), (0, 0, -1), (2, 1, 2), (1, 2, -1),
                                   (2, 2, 5)]:
            ids = np.array([[3, 1, 4], [0, 0, 0], [2, 1, 3]])
            ids[row, field] = bad_id
            with pytest.raises(DataError,
                               match=f"id {bad_id} out of range for field {field} "):
                layers.embed_forward(ids, emb)

    def test_dim_mismatch(self):
        emb = layers.Embedding(np.zeros((6, 3)), (4, 2))
        with pytest.raises(DimensionError):
            layers.embed_forward(np.array([3, 1]), emb)
        with pytest.raises(DimensionError):
            layers.embed_forward(np.array([[3, 1, 0]]), emb)

    def test_untouched_rows_zero_gradient(self):
        # backward returns the compact (rows, grad). Scattered into the
        # block it must equal per-field tables built in row order with
        # np.add.at (bitwise, the repeated ids included) and match finite
        # differences of <grad_e, E(block)>, which are exactly zero on the
        # rows no batch row looked up
        rng = np.random.default_rng(9)
        emb = layers.Embedding(rng.normal(0.0, 0.01, (11, 3)), (5, 6))
        ids = np.array([[2, 4], [0, 4], [2, 1]])
        _, cache = layers.embed_forward(ids, emb)
        grad_e = rng.normal(size=(3, 2, 3))
        rows, grad = layers.embed_backward(cache, grad_e, emb)
        assert np.array_equal(rows, [0, 2, 5 + 1, 5 + 4])  # field 1 starts at row 5
        dense = [np.zeros((5, 3)), np.zeros((6, 3))]
        for i, table_grad in enumerate(dense):
            np.add.at(table_grad, ids[:, i], grad_e[:, i])
        block = np.zeros((11, 3))
        block[rows] = grad
        assert np.array_equal(block, np.concatenate(dense))

        def f(flat):
            e, _ = layers.embed_forward(ids, layers.Embedding(flat.reshape(11, 3), (5, 6)))
            return float(np.sum(grad_e * e))

        flat = emb.table.ravel()
        numeric = oracle.finite_diff(f, flat)
        analytic = block.ravel()
        untouched = analytic == 0.0
        assert untouched.sum() == flat.size - 3 * 4  # rows 0, 2 and 4, 1
        assert np.array_equal(numeric[untouched], analytic[untouched])
        assert rel_err(analytic, numeric) < 1e-8

    @staticmethod
    def add_at_reference(cache, grad_e, k):
        rows, inverse = np.unique(cache.rows.ravel(), return_inverse=True)
        grad = np.zeros((len(rows), k))
        np.add.at(grad, inverse, grad_e.reshape(-1, k))
        return rows, grad

    def test_power_law_ids_match_add_at_bitwise(self):
        # the Criteo shapes, B = 512, N = 26, K = 20, with power-law ids, so
        # that many rows sum dozens of terms: the sums keep np.add.at's bits
        rng = np.random.default_rng(26)
        b, n, k, vocab = 512, 26, 20, 1000
        emb = layers.Embedding(np.zeros((n * vocab, k)), (vocab,) * n)
        ids = np.minimum(rng.pareto(1.1, (b, n)).astype(np.int64), vocab - 1)
        _, cache = layers.embed_forward(ids, emb)
        grad_e = rng.normal(size=(b, n, k))
        rows, grad = layers.embed_backward(cache, grad_e, emb)
        want_rows, want = self.add_at_reference(cache, grad_e, k)
        assert np.array_equal(rows, want_rows)
        assert np.bincount(np.searchsorted(rows, cache.rows.ravel())).max() > 100
        assert grad.dtype == np.float64 and grad.tobytes() == want.tobytes()

    def test_negative_zero_gradients_sum_to_positive_zero(self):
        # each sum starts from +0.0, and 0.0 + -0.0 is +0.0
        emb = layers.Embedding(np.zeros((6, 3)), (4, 2))
        ids = np.array([[3, 1], [3, 0], [2, 1]])
        _, cache = layers.embed_forward(ids, emb)
        grad_e = np.full((3, 2, 3), -0.0)
        _, grad = layers.embed_backward(cache, grad_e, emb)
        assert grad.shape == (4, 3) and not np.signbit(grad).any()
        assert grad.tobytes() == self.add_at_reference(cache, grad_e, 3)[1].tobytes()

    def test_empty_batch(self):
        emb = layers.Embedding(np.zeros((6, 3)), (4, 2))
        _, cache = layers.embed_forward(np.zeros((0, 2), dtype=np.int64), emb)
        rows, grad = layers.embed_backward(cache, np.zeros((0, 2, 3)), emb)
        assert rows.shape == (0,)
        assert grad.shape == (0, 3) and grad.dtype == np.float64

    def test_backward_shape_mismatch(self):
        emb = layers.Embedding(np.zeros((6, 3)), (4, 2))
        _, cache = layers.embed_forward(np.array([[3, 1]]), emb)
        with pytest.raises(DimensionError):
            layers.embed_backward(cache, np.zeros((2, 3)), emb)
        with pytest.raises(DimensionError):
            layers.embed_backward(cache, np.zeros((2, 2, 3)), emb)


@given(n=st.integers(min_value=1, max_value=4),
       k=st.integers(min_value=1, max_value=4), **batch_shapes)
@settings(max_examples=30, deadline=None)
def test_embedding_batch_matches_rows_one_at_a_time(n, k, rows, seed):
    rng = np.random.default_rng(seed)
    vocab = rng.integers(1, 6, n)
    emb = layers.Embedding(rng.normal(0.0, 0.01, (vocab.sum(), k)), tuple(vocab))
    ids = np.column_stack([rng.integers(0, v, rows) for v in vocab])
    grad_e = rng.normal(size=(rows, n, k))
    e, cache = layers.embed_forward(ids, emb)
    got_rows, got_grad = layers.embed_backward(cache, grad_e, emb)
    # the rows' compact gradients added into the block one row at a time
    # give the batch's bits: the batch adds in row order too
    block = np.zeros_like(emb.table)
    for r in range(rows):
        e_r, cache_r = layers.embed_forward(ids[r:r + 1], emb)
        rows_r, grad_r = layers.embed_backward(cache_r, grad_e[r:r + 1], emb)
        assert np.array_equal(e[r:r + 1], e_r)
        block[rows_r] += grad_r
    assert np.array_equal(got_rows, np.unique(ids + emb.offsets))
    assert np.array_equal(got_grad, block[got_rows])


# ---------------------------------------------------------------------------
# product layer
# ---------------------------------------------------------------------------


def product_layer(rng, t, n, k):
    return layers.ProductLayer(rng.normal(0.0, 0.01, (t, n)), rng.normal(0.0, 0.01, (t, n, k)))


class TestProductLayer:
    def worked_layer(self):
        theta = np.array([[1.0, 1.0]])
        order1 = np.ones((1, 2, 1))
        return layers.ProductLayer(theta, order1)

    def test_worked_example(self):
        # row 0, e = ([2], [3]): p2 = (2+3)^2 = 25, the unfactored double
        # sum 4 + 6 + 6 + 9; p1 = 2 + 3 = 5. Row 1, e = ([1], [1]): 2 and 4
        e = np.array([[[2.0], [3.0]], [[1.0], [1.0]]])
        out, _ = layers.product_forward(e, self.worked_layer())
        assert np.array_equal(out, np.array([[5.0, 25.0], [2.0, 4.0]]))

    def test_zero_theta(self):
        rng = np.random.default_rng(10)
        pl = layers.ProductLayer(np.zeros((3, 4)), rng.normal(size=(3, 4, 2)))
        e = rng.normal(size=(5, 4, 2))
        out, _ = layers.product_forward(e, pl)
        assert np.array_equal(out[:, 3:], np.zeros((5, 3)))

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        pl = product_layer(rng, 4, 5, 3)
        pl.theta[:] = rng.uniform(-1, 1, pl.theta.shape)
        e = rng.uniform(-1, 1, (3, 5, 3))
        out, _ = layers.product_forward(e, pl)
        for row in range(3):
            for t in range(4):
                ref = oracle.naive_product_p2(e[row], pl.theta, t)
                assert rel_err(out[row, 4 + t], ref, floor=1e-300) < 1e-10

    @pytest.mark.parametrize("k", [1, 3, 8, 20, 33])
    def test_p2_matches_double_sum_oracle_at_every_kernel_length(self, k):
        # the contraction over K may take a different kernel at each length.
        # The double sum cancels, so its own rounding scales with the sum of
        # its terms' magnitudes: the bound is relative to that sum
        rng = np.random.default_rng(27 + k)
        rows, t, n = 3, 4, 5
        pl = layers.ProductLayer(rng.uniform(-1, 1, (t, n)), rng.uniform(-1, 1, (t, n, k)))
        e = rng.uniform(-1, 1, (rows, n, k))
        out, _ = layers.product_forward(e, pl)
        for row in range(rows):
            for slot in range(t):
                want = oracle.naive_product_p2(e[row], pl.theta, slot)
                scale = oracle.naive_product_p2(np.abs(e[row]), np.abs(pl.theta), slot)
                assert abs(out[row, t + slot] - want) <= 1e-12 * scale

    def test_dim_mismatch(self):
        pl = product_layer(np.random.default_rng(23), 2, 3, 2)
        with pytest.raises(DimensionError):
            layers.product_forward(np.zeros((3, 2)), pl)
        with pytest.raises(DimensionError):
            layers.product_forward(np.zeros((4, 3, 3)), pl)
        _, cache = layers.product_forward(np.zeros((4, 3, 2)), pl)
        with pytest.raises(DimensionError):
            layers.product_backward(cache, np.zeros((3, 4)), pl, carrier(pl))

    def test_backward_hand_example(self):
        # unit upstream gradient on p2 of both rows: dtheta_i = sum over
        # rows of 2 u e_i, with u = 5 on row 0 and u = 2 on row 1
        e = np.array([[[2.0], [3.0]], [[1.0], [1.0]]])
        pl = self.worked_layer()
        _, cache = layers.product_forward(e, pl)
        _, grads = backward(layers.product_backward, cache,
                            np.array([[0.0, 1.0], [0.0, 1.0]]), pl)
        assert np.array_equal(grads.theta, np.array([[20.0 + 4.0, 30.0 + 4.0]]))

    def test_zero_upstream(self):
        rng = np.random.default_rng(12)
        pl = product_layer(rng, 2, 3, 2)
        e = rng.normal(size=(4, 3, 2))
        _, cache = layers.product_forward(e, pl)
        grad_e, grads = backward(layers.product_backward, cache, np.zeros((4, 4)), pl)
        assert np.array_equal(grad_e, np.zeros((4, 3, 2)))
        assert np.array_equal(grads.theta, np.zeros((2, 3)))
        assert np.array_equal(grads.order1, np.zeros((2, 3, 2)))

    def test_finite_differences(self):
        # a batch of 3 rows: parameter gradients are summed over the rows
        rng = np.random.default_rng(13)
        rows, t, n, k = 3, 3, 4, 2
        theta = rng.uniform(-1, 1, (t, n))
        order1 = rng.uniform(-1, 1, (t, n, k))
        e = rng.uniform(-1, 1, (rows, n, k))
        g = rng.normal(size=(rows, 2 * t))
        sizes = [e.size, theta.size, order1.size]

        def f(flat):
            e_, th_, o1_ = np.split(flat, np.cumsum(sizes)[:-1])
            out, _ = layers.product_forward(e_.reshape(rows, n, k),
                                            layers.ProductLayer(
                                                th_.reshape(t, n),
                                                o1_.reshape(t, n, k)))
            return float(np.sum(out * g))

        pl = layers.ProductLayer(theta, order1)
        _, cache = layers.product_forward(e, pl)
        grad_e, grads = backward(layers.product_backward, cache, g, pl)
        analytic = np.concatenate([grad_e.ravel(), grads.theta.ravel(),
                                   grads.order1.ravel()])
        numeric = oracle.finite_diff(
            f, np.concatenate([e.ravel(), theta.ravel(), order1.ravel()]))
        assert rel_err(analytic, numeric) < 1e-6

    def test_cache_keeps_no_u(self):
        # T != N, so the (N, B * K) fields-major copy cannot pass for U
        rng = np.random.default_rng(24)
        rows, t, n, k = 5, 6, 4, 3
        _, cache = layers.product_forward(rng.normal(size=(rows, n, k)),
                                          product_layer(rng, t, n, k))
        shapes = [getattr(cache, f.name).shape for f in dataclasses.fields(cache)]
        assert shapes == [(rows, n, k), (n, rows * k)]

    def test_backward_builds_gu_in_place_of_u(self):
        # at the Criteo shapes, 512 rows, U (T x B*K) alone is 8.2 MB; with
        # GU = 2 * G2 * U made as a second U-sized array the peak is 22.8 MB
        rng = np.random.default_rng(28)
        rows, t, n, k = 512, 100, 26, 20
        pl = product_layer(rng, t, n, k)
        _, cache = layers.product_forward(rng.normal(size=(rows, n, k)), pl)
        g, grads = rng.normal(size=(rows, 2 * t)), carrier(pl)
        tracemalloc.start()
        try:
            layers.product_backward(cache, g, pl, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_backward_matches_a_kept_u_bitwise(self):
        # the reference keeps U from the forward pass's own expression and
        # applies the backward formulas to it; backward rebuilds U instead
        rng = np.random.default_rng(25)
        rows, t, n, k = 64, 7, 5, 4
        pl = layers.ProductLayer(rng.uniform(-1, 1, (t, n)), rng.uniform(-1, 1, (t, n, k)))
        e = rng.uniform(-1, 1, (rows, n, k))
        g = rng.normal(size=(rows, 2 * t))
        _, cache = layers.product_forward(e, pl)
        grad_e, grads = backward(layers.product_backward, cache, g, pl)

        et = e.transpose(1, 0, 2).reshape(n, rows * k)
        u = pl.theta @ et
        g1, g2 = g[:, :t], g[:, t:]
        gu = (2.0 * g2.T[:, :, None] * u.reshape(t, rows, k)).reshape(t, rows * k)
        assert np.array_equal(grads.theta, gu @ et.T)
        assert np.array_equal(grads.order1.reshape(t, n * k), g1.T @ e.reshape(rows, n * k))
        assert np.array_equal(grad_e, (pl.theta.T @ gu).reshape(n, rows, k).transpose(1, 0, 2)
                              + (g1 @ pl.order1.reshape(t, n * k)).reshape(rows, n, k))


@given(t=st.integers(min_value=1, max_value=5), n=st.integers(min_value=1, max_value=4),
       k=st.integers(min_value=1, max_value=4), **batch_shapes)
@settings(max_examples=30, deadline=None)
def test_product_batch_matches_rows_one_at_a_time(t, n, k, rows, seed):
    rng = np.random.default_rng(seed)
    pl = layers.ProductLayer(rng.uniform(-1, 1, (t, n)), rng.uniform(-1, 1, (t, n, k)))
    e = rng.uniform(-1, 1, (rows, n, k))
    g = rng.normal(size=(rows, 2 * t))
    out, cache = layers.product_forward(e, pl)
    grad_e, grads = backward(layers.product_backward, cache, g, pl)
    one = [layers.product_forward(e[r:r + 1], pl) for r in range(rows)]
    back = [backward(layers.product_backward, c, g[r:r + 1], pl)
            for r, (_, c) in enumerate(one)]
    assert_normwise_close(out, np.concatenate([o for o, _ in one]))
    assert_normwise_close(grad_e, np.concatenate([b[0] for b in back]))
    assert_normwise_close(grads.theta, sum(b[1].theta for b in back))
    assert_normwise_close(grads.order1, sum(b[1].order1 for b in back))


# ---------------------------------------------------------------------------
# concat cross
# ---------------------------------------------------------------------------


class TestConcatCross:
    # the concat stage is a depth-one CrossStack over X0 = [OC, OP]

    def test_zero_weight(self):
        cc = layers.CrossStack([np.zeros(4)], [np.zeros(4)])
        out, _ = layers.concat_cross_forward(np.array([[1.0, 2.0, 3.0, 4.0]]), cc)
        assert np.array_equal(out, np.array([[1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0]]))

    def test_worked_example(self):
        cc = layers.CrossStack([np.array([1.0, 0.0])], [np.zeros(2)])
        out, _ = layers.concat_cross_forward(np.array([[1.0, 2.0], [3.0, 5.0]]), cc)
        assert np.array_equal(out, np.array([[1.0, 2.0, 1.0, 2.0],
                                             [3.0, 5.0, 9.0, 15.0]]))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(14)
        dim = 6
        cc = layers.CrossStack([rng.uniform(-1, 1, dim)], [rng.uniform(-1, 1, dim)])
        oc, op = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        fast, _ = layers.concat_cross_forward(np.concatenate([oc, op], axis=1), cc)
        for row in range(3):
            x0 = np.concatenate([oc[row], op[row]])
            assert rel_err(fast[row], oracle.naive_cross_forward(x0, cc)) < 1e-12

    def test_dim_mismatch(self):
        cc = layers.CrossStack([np.zeros(3)], [np.zeros(3)])
        with pytest.raises(DimensionError):
            layers.concat_cross_forward(np.zeros((2, 4)), cc)
        with pytest.raises(DimensionError):
            layers.concat_cross_forward(np.zeros((2, 2)), cc)
        with pytest.raises(DimensionError):
            layers.concat_cross_forward(np.zeros(3), cc)

    def test_identity_segment_passthrough(self):
        # upstream gradient only on the x0 half flows through unchanged
        rng = np.random.default_rng(15)
        dim = 5
        cc = layers.CrossStack([rng.normal(size=dim)], [rng.normal(size=dim)])
        _, cache = layers.concat_cross_forward(rng.normal(size=(2, dim)), cc)
        g0 = rng.normal(size=(2, dim))
        upstream = np.concatenate([g0, np.zeros((2, dim))], axis=1)
        gx0, _ = backward(layers.concat_cross_backward, cache, upstream, cc)
        assert np.array_equal(gx0, g0)

    def test_zero_upstream(self):
        rng = np.random.default_rng(16)
        cc = layers.CrossStack([rng.normal(size=3)], [rng.normal(size=3)])
        _, cache = layers.concat_cross_forward(rng.normal(size=(2, 3)), cc)
        gx0, grads = backward(layers.concat_cross_backward, cache, np.zeros((2, 6)), cc)
        assert np.array_equal(gx0, np.zeros((2, 3)))
        assert np.array_equal(grads.weights[0], np.zeros(3))

    def test_finite_differences(self):
        # a batch of 3 rows: parameter gradients are summed over the rows
        rng = np.random.default_rng(17)
        rows, dim = 3, 7
        w, b = rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)
        x0 = rng.normal(size=(rows, dim))
        g = rng.normal(size=(rows, 2 * dim))
        cuts = np.cumsum([x0.size, dim])

        def f(flat):
            x0_, w_, b_ = np.split(flat, cuts)
            out, _ = layers.concat_cross_forward(x0_.reshape(rows, dim),
                                                 layers.CrossStack([w_], [b_]))
            return float(np.sum(out * g))

        cc = layers.CrossStack([w], [b])
        _, cache = layers.concat_cross_forward(x0, cc)
        gx0, grads = backward(layers.concat_cross_backward, cache, g, cc)
        analytic = np.concatenate([gx0.ravel(), grads.weights[0], grads.biases[0]])
        numeric = oracle.finite_diff(f, np.concatenate([x0.ravel(), w, b]))
        assert rel_err(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# MLP head
# ---------------------------------------------------------------------------


def random_mlp(rng, input_dim, widths, scale=0.8):
    fan_ins = [input_dim, *widths]
    weights = [rng.uniform(-scale, scale, (w, f)) for w, f in zip(widths, fan_ins)]
    biases = [rng.uniform(-scale, scale, w) for w in widths]
    return layers.Mlp(weights, biases, rng.uniform(-scale, scale, fan_ins[-1]),
                      rng.uniform(-scale, scale, 1))


class TestMlp:
    def test_all_zero_gives_half(self):
        mlp = layers.Mlp([np.zeros((3, 2))], [np.zeros(3)], np.zeros(3), np.zeros(1))
        probs, _ = layers.mlp_forward(np.array([[0.7, -0.3], [1.0, 2.0]]), mlp)
        assert np.array_equal(probs, [0.5, 0.5])

    def test_relu_dead_path(self):
        # one hidden unit, weight 1, input -5: hidden dies, output is
        # sigmoid(output bias)
        mlp = layers.Mlp([np.array([[1.0]])], [np.zeros(1)],
                         np.array([1.0]), np.array([0.3]))
        probs, cache = layers.mlp_forward(np.array([[-5.0]]), mlp)
        assert cache.hiddens[-1][0, 0] == 0.0
        assert probs[0] == 1.0 / (1.0 + np.exp(-0.3))

    def test_no_hidden_layers(self):
        mlp = layers.Mlp([], [], np.array([2.0, -1.0]), np.array([0.5]))
        probs, cache = layers.mlp_forward(np.array([[1.0, 1.0], [0.0, 2.0]]), mlp)
        assert np.array_equal(cache.logits, [1.5, -1.5])
        assert probs[0] == 1.0 / (1.0 + np.exp(-1.5))
        assert probs[1] == np.exp(-1.5) / (1.0 + np.exp(-1.5))

    def test_output_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates past |z| ~ 37; assert strictness on the
        # representable range the layer contract covers
        rng = np.random.default_rng(18)
        mlp = random_mlp(rng, 4, (6,))
        probs, _ = layers.mlp_forward(rng.uniform(-2, 2, (200, 4)), mlp)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_dim_mismatch(self):
        mlp = random_mlp(np.random.default_rng(22), 3, (4,))
        with pytest.raises(DimensionError):
            layers.mlp_forward(np.zeros((2, 4)), mlp)
        with pytest.raises(DimensionError):
            layers.mlp_forward(np.zeros(3), mlp)
        _, cache = layers.mlp_forward(np.zeros((2, 3)), mlp)
        with pytest.raises(DimensionError):
            layers.mlp_backward_logit(cache, np.zeros(3), mlp, carrier(mlp))

    def test_finite_differences(self):
        # d(sum_r u_r * prob_r) over a batch of 3 rows: the logit gradient
        # is u * prob * (1 - prob), and parameter gradients sum the rows
        rng = np.random.default_rng(19)
        rows, input_dim, widths = 3, 4, (5, 3)
        u = rng.normal(size=rows)
        for attempt in range(50):
            mlp = random_mlp(rng, input_dim, widths)
            h0 = rng.uniform(-1, 1, (rows, input_dim))
            _, cache = layers.mlp_forward(h0, mlp)
            # the cache keeps no Z_i: rebuild each from H_{i-1} and the weights
            if all(np.min(np.abs(h @ w.T + b)) > 1e-3 for h, w, b in
                   zip(cache.hiddens, mlp.weights, mlp.biases)) and \
                    np.max(np.abs(cache.logits)) < 6:
                break

        shapes = [h0.shape] + [w.shape for w in mlp.weights] + \
                 [b.shape for b in mlp.biases] + [mlp.out_weight.shape, (1,)]
        sizes = [int(np.prod(s)) for s in shapes]

        def f(flat):
            parts = np.split(flat, np.cumsum(sizes)[:-1])
            h0_ = parts[0].reshape(shapes[0])
            n_layers = len(mlp.weights)
            ws = [parts[1 + i].reshape(shapes[1 + i]) for i in range(n_layers)]
            bs = [parts[1 + n_layers + i] for i in range(n_layers)]
            out_w = parts[1 + 2 * n_layers]
            out_b = parts[2 + 2 * n_layers]
            probs, _ = layers.mlp_forward(h0_, layers.Mlp(ws, bs, out_w, out_b))
            return float(probs @ u)

        probs, cache = layers.mlp_forward(h0, mlp)
        gh0, grads = backward(layers.mlp_backward_logit, cache,
                              u * probs * (1.0 - probs), mlp)
        analytic = np.concatenate(
            [gh0.ravel()] + [w.ravel() for w in grads.weights] +
            [b.ravel() for b in grads.biases] +
            [grads.out_weight, grads.out_bias])
        theta = np.concatenate(
            [h0.ravel()] + [w.ravel() for w in mlp.weights] +
            [b.ravel() for b in mlp.biases] + [mlp.out_weight, mlp.out_bias])
        numeric = oracle.finite_diff(f, theta)
        assert rel_err(analytic, numeric) < 1e-6

    def test_zero_upstream(self):
        rng = np.random.default_rng(20)
        mlp = random_mlp(rng, 3, (4,))
        _, cache = layers.mlp_forward(rng.normal(size=(2, 3)), mlp)
        gh0, grads = backward(layers.mlp_backward_logit, cache, np.zeros(2), mlp)
        assert np.array_equal(gh0, np.zeros((2, 3)))
        assert np.array_equal(grads.out_weight, np.zeros(4))


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
@example(m=6, depth=6, seed=39916799)
def test_rank_one_equivalence_property(m, depth, seed):
    # each row bounded relative to its largest element: an element that
    # comes from cancellation (5e-5 beside 1.3 in row 0 of the pinned case)
    # has an ill-conditioned relative error of its own
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, m, depth)
    d = rng.uniform(-1, 1, (3, m))
    fast, _ = layers.cross_forward(d, stack)
    for row in range(3):
        assert_normwise_close(fast[row], oracle.naive_cross_forward(d[row], stack))
