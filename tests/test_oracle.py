import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcrossnet import data, layers, oracle
from xcrossnet.errors import DimensionError, NumericError
from xcrossnet.model import ModelConfig, XCrossNetModel

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestNaiveCross:
    def test_worked_example(self):
        stack = layers.CrossStack([np.array([1.0, 1.0])], [np.zeros(2)])
        out = oracle.naive_cross_forward(np.array([1.0, 2.0]), stack)
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0, 6.0]))

    def test_zero_weights(self):
        d = np.array([0.5, -1.5, 2.0])
        stack = layers.CrossStack([np.zeros(3)] * 2, [np.zeros(3)] * 2)
        out = oracle.naive_cross_forward(d, stack)
        assert np.array_equal(out, np.concatenate([d, np.zeros(6)]))

    def test_rejects_a_2d_input(self):
        stack = layers.CrossStack([np.ones(2)], [np.zeros(2)])
        with pytest.raises(DimensionError):
            oracle.naive_cross_forward(np.ones((1, 2)), stack)
        with pytest.raises(DimensionError):
            oracle.expand_cross_polynomial([np.ones((1, 2))])
        with pytest.raises(DimensionError):
            oracle.evaluate_monomials(oracle.expand_cross_polynomial([np.ones(2)]),
                                      np.ones((2, 1)))


class TestOuter:
    # np.outer as the naive cross oracle uses it

    def test_worked_example(self):
        out = np.outer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(out, np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_zero_vector(self):
        out = np.outer(np.zeros(3), np.arange(4.0))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_rank_one_identity(self):
        # outer(a, b) @ w == a * <b, w>: what the fast cross path exploits
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 12)
            a, b, w = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
            lhs = np.outer(a, b) @ w
            rhs = a * np.dot(b, w)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@given(st.lists(finite_floats, min_size=1, max_size=16), st.data())
@settings(max_examples=100, deadline=None)
def test_naive_oracles_stay_finite(xs, data):
    ys = data.draw(st.lists(finite_floats, min_size=len(xs), max_size=len(xs)))
    d, w = np.array(xs), np.array(ys)
    stack = layers.CrossStack([w], [np.zeros(len(w))])
    assert np.all(np.isfinite(oracle.naive_cross_forward(d, stack)))
    assert np.isfinite(oracle.evaluate_monomials(oracle.expand_cross_polynomial([w]), d))


class TestNaiveProduct:
    def test_worked_example(self):
        e = np.array([[2.0], [3.0]])
        theta = np.array([[1.0, 1.0]])
        assert oracle.naive_product_p2(e, theta, 0) == 25.0

    def test_one_hot_theta(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(3, 4))
        theta = np.array([[0.0, 1.0, 0.0]])
        ref = float(e[1] @ e[1])
        assert rel(oracle.naive_product_p2(e, theta, 0), ref) < 1e-12


class TestExpansion:
    def test_single_field_coefficient(self):
        weights = [np.array([2.0]), np.array([3.0]), np.array([5.0])]
        monos = oracle.expand_cross_polynomial(weights)
        assert len(monos) == 1
        assert monos[0].exponents == (3,)
        assert monos[0].coefficient == 30.0

    def test_two_field_hand_expansion(self):
        # (d1 + d2)(d1 + 2 d2) = d1^2 + 3 d1 d2 + 2 d2^2
        weights = [np.array([1.0, 1.0]), np.array([1.0, 2.0])]
        monos = {m.exponents: m.coefficient
                 for m in oracle.expand_cross_polynomial(weights)}
        assert monos == {(2, 0): 1.0, (1, 1): 3.0, (0, 2): 2.0}
        # both sides at d = [1, 1]: 6 == 2 * 3
        value = oracle.evaluate_monomials(
            oracle.expand_cross_polynomial(weights), np.array([1.0, 1.0]))
        assert value == 6.0

    def test_numeric_agreement_with_scalar_chain(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n_forms = int(rng.integers(1, 5))
            weights = [rng.uniform(-1, 1, m) for _ in range(n_forms)]
            monos = oracle.expand_cross_polynomial(weights)
            d = rng.uniform(-1, 1, m)
            chain = 1.0
            for w in weights:
                chain *= float(d @ w)
            assert rel(oracle.evaluate_monomials(monos, d), chain,
                       floor=1e-12) < 1e-10

    def test_blowup_guard(self):
        weights = [np.ones(8)] * 10  # 8^10 > cap
        with pytest.raises(ValueError):
            oracle.expand_cross_polynomial(weights)

    def test_monomial_degree_invariant(self):
        weights = [np.ones(3)] * 4
        for mono in oracle.expand_cross_polynomial(weights):
            assert sum(mono.exponents) == 4


class TestFiniteDiff:
    def test_quadratic_exact(self):
        theta = np.linspace(-2, 2, 9)
        grad = oracle.finite_diff(lambda t: 0.5 * float(t @ t), theta)
        assert np.max(np.abs(grad - theta)) < 1e-9

    def test_linear_exact(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=7)
        theta = rng.normal(size=7)
        grad = oracle.finite_diff(lambda t: float(t @ c), theta)
        assert np.max(np.abs(grad - c)) < 1e-9

    def test_non_finite_probe(self):
        with pytest.raises(NumericError):
            oracle.finite_diff(lambda t: float("nan"), np.zeros(2))


class TestRelativeError:
    def test_skip_floor(self):
        assert oracle.relative_error(1e-12, -1e-12) == 0.0
        assert oracle.relative_error(1.0, 2.0) == 0.5
        # the floor is on the difference, not on the magnitudes
        assert oracle.relative_error(0.0, 1e-9) == 1.0
        assert oracle.relative_error(2e-9, 1e-9, atol=1e-9) == 0.0


class TestReluKinkRisk:
    # zero MLP weights make every pre-activation its bias exactly; negative
    # biases make every hidden output 0, so only a check that rebuilds the
    # pre-activations can tell these batches apart
    def model_and_batch(self):
        config = ModelConfig(dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3),
                             embed_dim=2, product_size=2, cross_depth=1,
                             mlp_widths=(4, 3), seed=5)
        model = XCrossNetModel.init(config)
        for w, b in zip(model.mlp.weights, model.mlp.biases):
            w[...] = 0.0
            b[...] = -0.5
        rng = np.random.default_rng(6)
        batch = data.Dataset(rng.uniform(-1, 1, (5, 2)), rng.integers(0, 3, (5, 2)),
                             np.zeros(5))
        return model, batch

    def test_passes_when_every_pre_activation_is_clear_of_the_kink(self):
        model, batch = self.model_and_batch()
        cache = model.forward(batch)[1].mlp
        hiddens = cache.hiddens
        assert all(np.all(h == 0.0) for h in hiddens[1:])
        zs = [h @ w.T + b for h, w, b in zip(hiddens, model.mlp.weights, model.mlp.biases)]
        assert [z.shape for z in zs] == [(5, 4), (5, 3)]
        assert all(np.min(np.abs(z)) > 1e-2 for z in zs)
        assert not oracle.relu_kink_risk(model.mlp, cache)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_flags_a_pre_activation_at_exactly_zero(self, layer):
        model, batch = self.model_and_batch()
        model.mlp.biases[layer][1] = 0.0
        assert oracle.relu_kink_risk(model.mlp, model.forward(batch)[1].mlp)


class TestGradcheckRefusals:
    CONFIG = ModelConfig(dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3), embed_dim=2,
                         product_size=2, cross_depth=1, mlp_widths=(4,), seed=1)

    def test_point_is_float64_whatever_the_config_dtype(self):
        assert self.CONFIG.dtype == "float32"
        model, _ = oracle.gradcheck_point(self.CONFIG, seed=0)
        assert model.registry.values.dtype == np.float64
        assert model.config.dtype == "float64"

    def test_float32_model_is_refused_naming_its_dtype(self):
        model = XCrossNetModel.init(self.CONFIG)
        _, batch = oracle.gradcheck_point(self.CONFIG, seed=0)
        with pytest.raises(ValueError, match="gradcheck needs a float64 model, got float32"):
            oracle.gradcheck_model(model, batch)

    def test_no_well_conditioned_point(self, monkeypatch):
        # no draw has every |logit| under a negative cap
        monkeypatch.setattr(oracle, "LOGIT_CAP", -1.0)
        with pytest.raises(NumericError, match=f"found in {oracle.MAX_TRIES} draws"):
            oracle.gradcheck_point(self.CONFIG, seed=0)

    def test_non_finite_loss_at_the_point(self):
        model, batch = oracle.gradcheck_point(self.CONFIG, seed=0)
        model.registry["mlp.out_b"].values[0] = np.nan
        with pytest.raises(NumericError, match="loss is non-finite at the gradcheck point"):
            oracle.gradcheck_model(model, batch)
