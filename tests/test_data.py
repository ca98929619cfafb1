import dataclasses
import gzip
import math

import numpy as np
import pytest

from xcrossnet import data, metrics
from xcrossnet.errors import DataError

VOCAB2 = data.FieldVocab([{"a": 1, "b": 2}, {"x": 1}])


class TestNormalization:
    def test_zero_maps_to_zero(self):
        assert data.normalize_dense(0.0) == 0.0

    def test_minus_one(self):
        assert abs(data.normalize_dense(-1.0) + math.log(2)) < 1e-15

    def test_sign_and_order_preserved(self):
        xs = np.linspace(-50, 50, 101)
        ys = [data.normalize_dense(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        assert all((x < 0) == (y < 0) for x, y in zip(xs, ys))


class TestParse:
    def test_missing_dense_is_zero(self):
        inst = data.parse_criteo_line("1\t3\t\tb\tx\n", VOCAB2, 2, 2)
        assert inst.label == 1
        assert inst.dense[1] == 0.0
        assert abs(inst.dense[0] - math.log(4)) < 1e-15
        assert list(inst.sparse) == [2, 1]

    def test_unknown_and_missing_tokens_map_to_zero(self):
        inst = data.parse_criteo_line("0\t1\t2\tzzz\t\n", VOCAB2, 2, 2)
        assert list(inst.sparse) == [0, 0]

    def test_bad_field_count(self):
        with pytest.raises(DataError):
            data.parse_criteo_line("1\t2\t3\n", VOCAB2, 2, 2)

    def test_bad_label(self):
        with pytest.raises(DataError):
            data.parse_criteo_line("2\t1\t2\ta\tx\n", VOCAB2, 2, 2)

    def test_bad_dense_value(self):
        with pytest.raises(DataError):
            data.parse_criteo_line("1\tfoo\t2\ta\tx\n", VOCAB2, 2, 2)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_dense_value(self, token):
        with pytest.raises(DataError, match="dense field 1"):
            data.parse_criteo_line(f"1\t2\t{token}\ta\tx\n", VOCAB2, 2, 2)


class TestBuildVocab:
    def test_all_unique_tokens_drop_out(self):
        lines = [f"0\t1\tt{i}\n" for i in range(5)]
        vocab = data.build_vocab(lines, 1, 1, min_freq=2)
        assert vocab.sizes() == (1,)
        assert vocab.lookup(0, "t3") == 0

    def test_lexicographic_tie_break(self):
        lines = [f"0\t1\t{t}\n" for t in ["b", "a", "b", "a", "a", "b", "c"]]
        vocab = data.build_vocab(lines, 1, 1, min_freq=1)
        # a and b tie at 3, a wins lexicographically; c trails
        assert vocab.lookup(0, "a") == 1
        assert vocab.lookup(0, "b") == 2
        assert vocab.lookup(0, "c") == 3

    def test_rebuild_is_identical(self):
        rng = np.random.default_rng(0)
        lines = [f"0\t1\tt{rng.integers(0, 20)}\n" for _ in range(200)]
        a = data.build_vocab(lines, 1, 1, min_freq=3)
        b = data.build_vocab(lines, 1, 1, min_freq=3)
        assert a.mappings == b.mappings

    def test_json_roundtrip(self):
        restored = data.FieldVocab.from_json(VOCAB2.to_json())
        assert restored.mappings == VOCAB2.mappings


class TestIngestionPurity:
    def test_same_file_same_dataset_bytes(self, tmp_path):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=200, n_valid=50)
        sd = data.synth_generate(spec)
        train_path = tmp_path / "train.tsv"
        sd.write_tsv(train_path, tmp_path / "valid.tsv")
        vocab = sd.vocab()
        a = data.load_tsv(train_path, vocab, 4, 4)
        b = data.load_tsv(train_path, vocab, 4, 4)
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.sparse, b.sparse)
        assert np.array_equal(a.labels, b.labels)

    def test_validation_rows_never_influence_vocab(self):
        train_lines = ["0\t1\tseen\n"] * 12
        valid_lines = ["1\t1\tvalonly\n"] * 50
        vocab = data.build_vocab(train_lines, 1, 1, min_freq=10)
        assert vocab.lookup(0, "seen") == 1
        # a token that only exists in validation data stays OOV
        inst = data.parse_criteo_line(valid_lines[0], vocab, 1, 1)
        assert inst.sparse[0] == 0

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "rows.tsv.gz"
        with gzip.open(path, "wt") as f:
            f.write("1\t2\t3\ta\tx\n0\t\t\tb\t\n")
        ds = data.load_tsv(path, VOCAB2, 2, 2)
        assert len(ds) == 2
        assert ds.labels.tolist() == [1.0, 0.0]


class TestBatchIter:
    def make(self, n=23):
        dense = np.arange(n, dtype=np.float64).reshape(n, 1)
        sparse = np.zeros((n, 1), dtype=np.int64)
        return data.Dataset(dense, sparse, np.zeros(n))

    def test_no_shuffle_keeps_order(self):
        ds = self.make()
        seen = np.concatenate([b.dense[:, 0] for b in
                               data.batch_iter(ds, 5, shuffle=False)])
        assert np.array_equal(seen, np.arange(23))

    def test_same_seed_same_permutation(self):
        ds = self.make()
        a = np.concatenate([b.dense[:, 0] for b in data.batch_iter(ds, 4, seed=9)])
        b = np.concatenate([bb.dense[:, 0] for bb in data.batch_iter(ds, 4, seed=9)])
        assert np.array_equal(a, b)

    def test_batches_cover_dataset_exactly_once(self):
        ds = self.make()
        seen = np.concatenate([b.dense[:, 0] for b in data.batch_iter(ds, 6, seed=1)])
        assert len(seen) == 23
        assert np.array_equal(np.sort(seen), np.arange(23))

    def test_last_partial_batch_kept(self):
        ds = self.make(10)
        sizes = [len(b) for b in data.batch_iter(ds, 4, shuffle=False)]
        assert sizes == [4, 4, 2]

    def test_empty_dataset(self):
        empty = data.Dataset(np.zeros((0, 1)), np.zeros((0, 1), dtype=np.int64),
                             np.zeros(0))
        with pytest.raises(DataError):
            next(data.batch_iter(empty, 4))


class TestSynth:
    def test_null_model_positive_ratio(self):
        spec = dataclasses.replace(
            data.DEFAULT_SYNTH_SPEC, n_train=20_000, n_valid=100,
            dense_cross_coef=0.0, pair_coef=0.0,
            dense_linear=(0.0, 0.0, 0.0, 0.0), sparse_linear_scale=0.0)
        sd = data.synth_generate(spec)
        ratio = sd.labels.mean()
        three_sigma = 3 * 0.5 / math.sqrt(len(sd.labels))
        assert abs(ratio - 0.5) < three_sigma

    def test_determinism(self):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=500, n_valid=100)
        a, b = data.synth_generate(spec), data.synth_generate(spec)
        assert np.array_equal(a.raw_dense, b.raw_dense)
        assert np.array_equal(a.sparse, b.sparse)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.scores, b.scores)

    def test_true_scores_recorded_per_instance(self):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=300, n_valid=80)
        sd = data.synth_generate(spec)
        assert sd.scores.shape == (380,)
        assert sd.train_scores.shape == (300,)
        assert sd.valid_scores.shape == (80,)

    def test_bayes_auc_stable_across_data_seeds(self):
        # same task (fixed task_seed), fresh instance draws per seed
        aucs = []
        for seed in (1, 2, 3):
            spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, seed=seed)
            sd = data.synth_generate(spec)
            aucs.append(metrics.auc(sd.train_scores, sd.train_labels))
        center = sum(aucs) / len(aucs)
        assert max(abs(a - center) for a in aucs) <= 0.005

    def test_tsv_roundtrip_is_exact(self, tmp_path):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=300, n_valid=60)
        sd = data.synth_generate(spec)
        train_path, valid_path = tmp_path / "train.tsv", tmp_path / "valid.tsv"
        sd.write_tsv(train_path, valid_path)
        vocab = sd.vocab()
        reparsed = data.load_tsv(train_path, vocab, 4, 4)
        in_memory = sd.train_dataset()
        assert np.array_equal(reparsed.dense, in_memory.dense)
        assert np.array_equal(reparsed.sparse, in_memory.sparse)
        assert np.array_equal(reparsed.labels, in_memory.labels)

    def test_designated_pair_out_of_vocab(self):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, vocab_size=2,
                                   pair=(1, 2))
        with pytest.raises(DataError):
            data.synth_generate(spec)
