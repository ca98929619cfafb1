import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcrossnet import data, metrics, optim
from xcrossnet.errors import NumericError
from xcrossnet.model import ModelConfig, XCrossNetModel


def pairwise_auc(preds, labels):
    """O(n^2) reference: wins plus half credit for ties over all pos/neg pairs."""
    pos = [p for p, y in zip(preds, labels) if y == 1]
    neg = [p for p, y in zip(preds, labels) if y == 0]
    total = 0.0
    for pp in pos:
        for pn in neg:
            if pp > pn:
                total += 1.0
            elif pp == pn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert metrics.auc([0.9, 0.1], [1, 0]) == 1.0

    def test_mixed_example(self):
        # pairs: (0.8 vs 0.5) win, (0.3 vs 0.5) loss -> 0.5
        assert metrics.auc([0.8, 0.5, 0.3], [1, 0, 1]) == 0.5

    def test_all_tied(self):
        assert metrics.auc([0.4] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class(self):
        assert metrics.auc([0.1, 0.2], [1, 1]) is None
        assert metrics.auc([0.1, 0.2], [0, 0]) is None

    @pytest.mark.parametrize("preds, row", [([math.nan, 0.1, 0.2], 1), ([0.3, math.nan, 0.2], 2)],
                             ids=["first_row", "later_row"])
    def test_nan_prediction_is_refused(self, preds, row):
        # NaN sorts last: ranked, the first case would score 1.0 and the second 0.5
        with pytest.raises(NumericError, match=f"prediction for row {row} is NaN"):
            metrics.auc(preds, [1, 0, 0])

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        preds = np.round(rng.uniform(0, 1, 1000), 2)  # heavy ties
        labels = rng.integers(0, 2, 1000).astype(float)
        fast = metrics.auc(preds, labels)
        slow = pairwise_auc(preds, labels)
        assert abs(fast - slow) < 1e-12

    def test_complement_symmetry_tie_free(self):
        rng = np.random.default_rng(1)
        preds = rng.permutation(np.linspace(0.01, 0.99, 200))
        labels = rng.integers(0, 2, 200).astype(float)
        assert abs(metrics.auc(preds, labels) +
                   metrics.auc(-preds, labels) - 1.0) < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_increasing_transforms(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        preds = rng.uniform(0, 1, 50)
        labels = np.concatenate([[0, 1], rng.integers(0, 2, 48)]).astype(float)
        base = metrics.auc(preds, labels)
        assert abs(metrics.auc(scale * preds + shift, labels) - base) < 1e-12
        assert abs(metrics.auc(np.exp(preds), labels) - base) < 1e-12


class TestEvaluate:
    CONFIG = ModelConfig(dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3),
                         embed_dim=2, product_size=2, cross_depth=1,
                         mlp_widths=(), seed=0)

    def small_dataset(self, labels):
        rng = np.random.default_rng(2)
        n = len(labels)
        return data.Dataset(rng.uniform(-1, 1, (n, 2)),
                            rng.integers(0, 3, (n, 2)),
                            np.array(labels, dtype=float))

    def test_zero_model_report(self):
        model = XCrossNetModel(self.CONFIG)
        ds = self.small_dataset([1, 0, 1, 0])
        report = metrics.evaluate(metrics.predict_dataset(model, ds), ds.labels)
        assert report.auc == 0.5
        assert abs(report.logloss - math.log(2)) < 1e-12
        assert (report.n_pos, report.n_neg) == (2, 2)

    def test_single_class_reports_no_auc(self):
        model = XCrossNetModel(self.CONFIG)
        ds = self.small_dataset([1, 1, 1])
        report = metrics.evaluate(metrics.predict_dataset(model, ds), ds.labels)
        assert report.auc is None
        assert math.isfinite(report.logloss)

    def test_evaluate_is_pure(self):
        model = XCrossNetModel.init(self.CONFIG)
        ds = self.small_dataset([1, 0, 0, 1, 1])
        a = metrics.evaluate(metrics.predict_dataset(model, ds), ds.labels)
        b = metrics.evaluate(metrics.predict_dataset(model, ds), ds.labels)
        assert (a.auc, a.logloss) == (b.auc, b.logloss)

    def test_chunked_predictions_match_one_batch(self):
        # 1,100 rows span three PREDICT_CHUNK-row forward passes
        model = XCrossNetModel.init(self.CONFIG)
        model.registry.set_flat(np.random.default_rng(3).uniform(
            -0.5, 0.5, model.registry.values.size))
        rng = np.random.default_rng(4)
        n = 2 * metrics.PREDICT_CHUNK + 76
        ds = data.Dataset(rng.uniform(-1, 1, (n, 2)), rng.integers(0, 3, (n, 2)),
                          rng.integers(0, 2, n).astype(float))
        chunked = metrics.predict_dataset(model, ds)
        whole, _ = model.forward(ds)
        assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)
        head = metrics.predict_dataset(model, ds.subset(np.arange(100)))
        assert np.allclose(head, whole[:100], rtol=1e-12, atol=0.0)

    def test_logloss_matches_optim_exactly(self):
        model = XCrossNetModel.init(self.CONFIG)
        ds = self.small_dataset([1, 0, 0, 1])
        report = metrics.evaluate(metrics.predict_dataset(model, ds), ds.labels)
        preds = metrics.predict_dataset(model, ds)
        assert report.logloss == optim.logloss(preds, ds.labels)


@pytest.mark.parametrize("score", [metrics.auc, metrics.logloss])
@pytest.mark.parametrize("preds, labels", [([0.1, 0.9], [1, 0, 1]), ([[0.1, 0.9]], [[1, 0]])],
                         ids=["lengths", "not_vectors"])
def test_shape_mismatch_is_refused(score, preds, labels):
    with pytest.raises(ValueError, match="preds"):
        score(preds, labels)


def test_average_ranks_tie_groups():
    ranks = metrics.average_ranks(np.array([0.1, 0.3, 0.1, 0.7]))
    assert ranks.tolist() == [1.5, 3.0, 1.5, 4.0]


def midrank_reference(values):
    """O(n^2) mid-ranks: 1 + #(v_j < v_i) + (#(v_j == v_i) - 1) / 2."""
    return np.array([1 + sum(w < v for w in values) + (sum(w == v for w in values) - 1) / 2
                     for v in values])


# heavy ties, and -0.0 beside 0.0, which rank as one value
TIED = st.one_of(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0]),
                 st.floats(min_value=-3.0, max_value=3.0))


@given(st.lists(st.tuples(TIED, st.sampled_from([0.0, 1.0])), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_ranks_and_auc_match_the_quadratic_oracles(rows):
    preds, labels = (np.array(column) for column in zip(*rows))
    assert metrics.average_ranks(preds).tobytes() == midrank_reference(preds.tolist()).tobytes()
    if 0.0 < labels.sum() < len(labels):
        assert metrics.auc(preds, labels) == pairwise_auc(preds, labels)
    else:
        assert metrics.auc(preds, labels) is None
