import dataclasses
import gzip
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_array_matches_scalar_branches_bitwise(self):
        xs = np.array([-0.0, 0.0, -1e300, -3.5, -1e-300, 1e-300, 2.0, 1e300,
                       *np.random.default_rng(0).normal(0, 100, 200)])
        expected = np.array([reference_normalize(x) for x in xs])
        assert data.normalize_dense(xs).tobytes() == expected.tobytes()


class TestStableSigmoid:
    def test_matches_the_two_branch_reference_bitwise(self):
        z = np.array([-0.0, 0.0, -800.0, 800.0,
                      *np.random.default_rng(0).uniform(-30, 30, 500)])
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        with np.errstate(over="raise", invalid="raise"):
            got = data.stable_sigmoid(z)
        assert got.tobytes() == expected.tobytes()
        assert got[:4].tolist() == [0.5, 0.5, 0.0, 1.0]

    def test_nan_gives_nan_and_infinities_saturate(self):
        with np.errstate(over="raise", invalid="raise"):
            got = data.stable_sigmoid(np.array([np.nan, -1.0, np.inf, -np.inf]))
        assert np.isnan(got[0]) and got[2:].tolist() == [1.0, 0.0]


class TestParse:
    def test_missing_dense_is_zero(self):
        row = data.parse_criteo_line("1\t3\t\tb\tx\n", VOCAB2, 2, 2)
        assert row.labels[0] == 1
        assert row.dense[0][1] == 0.0
        assert abs(row.dense[0][0] - math.log(4)) < 1e-15
        assert list(row.sparse[0]) == [2, 1]

    def test_unknown_and_missing_tokens_map_to_zero(self):
        row = data.parse_criteo_line("0\t1\t2\tzzz\t\n", VOCAB2, 2, 2)
        assert list(row.sparse[0]) == [0, 0]

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
        assert "t3" not in vocab.mappings[0]

    def test_lexicographic_tie_break(self):
        lines = [f"0\t1\t{t}\n" for t in ["b", "a", "b", "a", "a", "b", "c"]]
        vocab = data.build_vocab(lines, 1, 1, min_freq=1)
        # a and b tie at 3, a wins lexicographically; c trails
        assert vocab.mappings[0]["a"] == 1
        assert vocab.mappings[0]["b"] == 2
        assert vocab.mappings[0]["c"] == 3

    def test_rebuild_is_identical(self):
        rng = np.random.default_rng(0)
        lines = [f"0\t1\tt{rng.integers(0, 20)}\n" for _ in range(200)]
        a = data.build_vocab(lines, 1, 1, min_freq=3)
        b = data.build_vocab(lines, 1, 1, min_freq=3)
        assert a.mappings == b.mappings

    def test_ties_in_a_large_vocab_keep_token_order(self):
        tokens = [f"t{i:03d}" for i in range(300)] + ["x" * 9 + str(i) for i in range(40)]
        lines = [f"0\t1\t{t}\n" for t in tokens * 2 + tokens[::7]]
        order = np.random.default_rng(5).permutation(len(lines))
        lines = [lines[i] for i in order]
        vocab = data.build_vocab(lines, 1, 1, min_freq=2)
        assert list(vocab.mappings[0].items()) == \
            list(reference_vocab(lines, 1, 1, 2)[0].items())

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
        assert vocab.mappings[0]["seen"] == 1
        # a token that only exists in validation data stays OOV
        row = data.parse_criteo_line(valid_lines[0], vocab, 1, 1)
        assert row.sparse[0][0] == 0

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "rows.tsv.gz"
        with gzip.open(path, "wt") as f:
            f.write("1\t2\t3\ta\tx\n0\t\t\tb\t\n")
        ds = data.load_tsv(path, VOCAB2, 2, 2)
        assert len(ds) == 2
        assert ds.labels.tolist() == [1.0, 0.0]

    def test_files_are_utf8_in_any_locale(self, tmp_path):
        # in the C locale, a file opened without an encoding decodes as ASCII
        plain, packed = tmp_path / "rows.tsv", tmp_path / "rows.tsv.gz"
        plain.write_bytes("1\t2\t\u00e9\n".encode("utf-8"))
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        script = ("import locale, sys\n"
                  "from xcrossnet import data\n"
                  "print(locale.getpreferredencoding(False))\n"
                  "for path in sys.argv[1:]:\n"
                  "    print(ascii(data.build_vocab(data.read_lines(path), 1, 1, 1).mappings))\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(data.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", script, str(plain), str(packed)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        encoding, *mappings = run.stdout.splitlines()
        assert "utf" not in encoding.lower()
        assert mappings == [ascii([{"\u00e9": 1}])] * 2


def reference_normalize(x: float) -> float:
    """The per-value sign-safe log the line-at-a-time parser applied."""
    if x >= 0.0:
        return float(np.log1p(x))
    return float(-np.log1p(-x))


def reference_vocab(lines, n_dense, n_sparse, min_freq):
    """build_vocab one line and one token at a time: the per-line semantics
    the chunked counter must reproduce."""
    counters = [Counter() for _ in range(n_sparse)]
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        assert len(fields) == 1 + n_dense + n_sparse
        for i in range(n_sparse):
            if fields[1 + n_dense + i]:
                counters[i][fields[1 + n_dense + i]] += 1
    mappings = []
    for counter in counters:
        kept = sorted((t for t, c in counter.items() if c >= min_freq),
                      key=lambda t: (-counter[t], t))
        mappings.append({t: i + 1 for i, t in enumerate(kept)})
    return mappings


def reference_rows(lines, mappings, n_dense, n_sparse):
    """(dense, sparse, labels) parsed one line and one token at a time."""
    dense, sparse, labels = [], [], []
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        assert len(fields) == 1 + n_dense + n_sparse and fields[0] in ("0", "1")
        labels.append(int(fields[0]))
        dense.append([reference_normalize(float(t) if t else 0.0)
                      for t in fields[1:1 + n_dense]])
        sparse.append([m.get(t, 0) if t else 0
                       for m, t in zip(mappings, fields[1 + n_dense:])])
    return (np.array(dense, dtype=np.float64).reshape(len(lines), n_dense),
            np.array(sparse, dtype=np.int64).reshape(len(lines), n_sparse),
            np.array(labels, dtype=np.float64))


def assert_same_rows(ds, expected):
    for got, want in zip((ds.dense, ds.sparse, ds.labels), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bitwise, -0.0 included


# NUL, prefixes of each other, exactly 8 and 9 bytes, multi-byte characters
SPARSE_TOKENS = st.one_of(
    st.sampled_from(["", "a", "a\x00", "ab", "abcdefgh", "abcdefgh\x00",
                     "abcdefghi", "é", "ÿ", "\U0001f600", "x" * 17, "中文字符串测试"]),
    st.text(st.characters(blacklist_characters="\t\n\r",
                          blacklist_categories=("Cs",)), max_size=20))
DENSE_TOKENS = st.one_of(
    st.sampled_from(["", "0", "-0", "007", "+5", " 5", "5 ", "1_0", "0.25",
                     "-3", "-2.5", "1e3", "٣", "123456789012345678",
                     "1234567890123456789", "99999999999999999999999"]),
    st.integers(0, 10 ** 20).map(str),
    st.integers(-10 ** 6, -1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def tsv_files(draw):
    """Criteo-format lines with some fields' schema, and how to write them."""
    n_dense, n_sparse = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pool = draw(st.lists(SPARSE_TOKENS, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(
        st.sampled_from("01"),
        st.lists(DENSE_TOKENS, min_size=n_dense, max_size=n_dense),
        st.lists(st.sampled_from(pool), min_size=n_sparse, max_size=n_sparse)),
        min_size=1, max_size=14))
    lines = ["\t".join([label, *dense, *sparse]) for label, dense, sparse in rows]
    return dict(lines=lines, n_dense=n_dense, n_sparse=n_sparse,
                eol=draw(st.sampled_from(["\n", "\r\n"])),
                final_eol=draw(st.booleans()), gz=draw(st.booleans()),
                chunk=draw(st.sampled_from([1, 2, 3, 5, 4096])),
                min_freq=draw(st.integers(1, 3)))


class TestChunkedIngest:
    @settings(max_examples=80, deadline=None)
    @given(tsv_files())
    def test_matches_per_line_reference(self, f):
        text = f["eol"].join(f["lines"]) + (f["eol"] if f["final_eol"] else "")
        n_dense, n_sparse = f["n_dense"], f["n_sparse"]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data, "CHUNK_LINES", f["chunk"]):
            path = Path(tmp) / ("rows.tsv.gz" if f["gz"] else "rows.tsv")
            with gzip.open(path, "wt") if f["gz"] else open(path, "w") as out:
                out.write(text)
            lines = list(data.read_lines(path))
            vocab = data.build_vocab(data.read_lines(path), n_dense, n_sparse, f["min_freq"])
            expected = reference_vocab(lines, n_dense, n_sparse, f["min_freq"])
            assert [list(m.items()) for m in vocab.mappings] == \
                [list(m.items()) for m in expected]
            ds = data.load_tsv(path, vocab, n_dense, n_sparse)
        assert_same_rows(ds, reference_rows(lines, expected, n_dense, n_sparse))

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_in_memory_lines_keep_their_own_ends(self, chunk, monkeypatch):
        # no newline, several newlines, and a newline inside a token: each
        # item is still one line, as a line-at-a-time parser saw it
        monkeypatch.setattr(data, "CHUNK_LINES", chunk)
        lines = ["1\t2\ta", "0\t3\ta\n\n", "1\t4\tb\nc\n", "0\t\tb\nc", "1\t5\ta\r\n"]
        vocab = data.build_vocab(lines, 1, 1, min_freq=1)
        expected = reference_vocab(lines, 1, 1, 1)
        assert vocab.mappings == expected
        assert list(vocab.mappings[0]) == ["a", "b\nc", "a\r"]
        assert_same_rows(data.parse_lines(lines, vocab, 1, 1),
                         reference_rows(lines, expected, 1, 1))

    def test_vocab_of_long_tokens_maps_only_whole_tokens(self):
        # a token longer than every vocab token must not match its prefix
        vocab = data.FieldVocab([{"abcdefghijklmnop": 1, "b": 2}])
        ds = data.parse_lines(["0\tabcdefghijklmnop", "0\tabcdefghijklmnopq",
                               "0\tabcdefgh", "0\tb"], vocab, 0, 1)
        assert ds.sparse[:, 0].tolist() == [1, 0, 0, 2]

    def test_load_tsv_peak_memory(self, tmp_path):
        # the line-at-a-time parser peaked at 27.0 MB on this file
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=50_000, n_valid=1)
        sd = data.synth_generate(spec)
        sd.write_tsv(tmp_path / "train.tsv", tmp_path / "valid.tsv")
        tracemalloc.start()
        try:
            ds = data.load_tsv(tmp_path / "train.tsv", sd.vocab(), 4, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 50_000
        assert peak <= 13.5e6


CHUNK = 4
GOOD = "1\t2\t3\ta\tx"


def lines_with(bad: dict[int, str], n: int = 3 * CHUNK) -> list[str]:
    """n good lines with bad[k] as line k (1-based)."""
    return [bad.get(k, GOOD) + "\n" for k in range(1, n + 1)]


class TestParseChunks:
    def test_each_chunk_is_parsed_as_it_is_read(self, monkeypatch):
        # one Dataset per CHUNK_LINES lines, which together are parse_lines'
        monkeypatch.setattr(data, "CHUNK_LINES", CHUNK)
        lines = lines_with({2: "0\t5\t6\tb\t"}, n=10)
        read = []
        chunks = data.parse_chunks((read.append(line) or line for line in lines), VOCAB2, 2, 2)
        assert read == []
        first = next(chunks)
        assert len(first) == len(read) == CHUNK
        parts = [first, *chunks]
        assert [len(part) for part in parts] == [4, 4, 2]
        whole = data.parse_lines(lines, VOCAB2, 2, 2)
        for column in ("dense", "sparse", "labels"):
            assert np.concatenate([getattr(part, column) for part in parts]).tobytes() == \
                getattr(whole, column).tobytes()

    def test_vocab_field_count_is_checked_at_the_call(self):
        with pytest.raises(DataError, match="vocab has 1 fields, the data 2"):
            data.parse_chunks(iter(()), data.FieldVocab([{"a": 1}]), 2, 2)

    def test_no_lines_parse_to_no_rows(self):
        ds = data.parse_lines([], VOCAB2, 2, 2)
        assert (ds.dense.shape, ds.sparse.shape, ds.labels.shape) == ((0, 2), (0, 2), (0,))
        assert (ds.dense.dtype, ds.sparse.dtype) == (np.float64, np.int64)


class TestErrorsNameTheLine:
    """A bad line in the second chunk is reported with its line number in
    the file and the same field and token text as a one-line parse."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data, "CHUNK_LINES", CHUNK)

    @pytest.mark.parametrize("line, message", [
        ("1\t2\t3\ta", "line 7: expected 5 tab-separated fields, got 4"),
        ("1\t2\t3\ta\tx\ty", "line 7: expected 5 tab-separated fields, got 6"),
        ("2\t2\t3\ta\tx", "line 7: label must be 0 or 1, got '2'"),
        ("\t2\t3\ta\tx", "line 7: label must be 0 or 1, got ''"),
        ("1.0\t2\t3\ta\tx", "line 7: label must be 0 or 1, got '1.0'"),
        ("1\t2\tfoo\ta\tx", "line 7: dense field 1: not a number: 'foo'"),
        ("1\té\t3\ta\tx", "line 7: dense field 0: not a number: 'é'"),
        ("1\t2\tnan\ta\tx", "line 7: dense field 1: not finite: 'nan'"),
        ("1\tinf\t3\ta\tx", "line 7: dense field 0: not finite: 'inf'"),
        ("1\t2\t-inf\ta\tx", "line 7: dense field 1: not finite: '-inf'"),
        ("1\t2\t1e400\ta\tx", "line 7: dense field 1: not finite: '1e400'"),
    ])
    def test_message(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text("".join(lines_with({7: line})))
        with pytest.raises(DataError) as err:
            data.load_tsv(path, VOCAB2, 2, 2)
        assert str(err.value) == message
        # the one-line parse gives the same text for its line 1
        with pytest.raises(DataError) as one:
            data.parse_criteo_line(line + "\n", VOCAB2, 2, 2)
        assert str(one.value) == message.replace("line 7", "line 1")

    @pytest.mark.parametrize("bad, line", [
        ({6: "1\tfoo\t3\ta\tx", 7: "2\t2\t3\ta\tx"}, 6),   # dense before label
        ({6: "2\t2\t3\ta\tx", 7: "1\tfoo\t3\ta\tx"}, 6),   # label before dense
        ({6: "2\t2\t3\ta\tx", 7: "1\t2\t3"}, 6),             # label before count
        ({6: "1\t2", 7: "2\t2\t3\ta\tx"}, 6),                 # count before label
        ({6: "1\t2", 7: "1\tfoo\t3\ta\tx"}, 6),               # count before dense
        ({6: "1\t2\tinf\ta\tx", 7: "1\tfoo\t3\ta\tx"}, 6), # non-finite first
        ({6: "1\tfoo\tinf\ta\tx"}, 6),                        # field 0 first
        ({7: "2\tfoo\t3"}, 7),                                 # count, then label
        ({10: "1\tfoo\t3\ta\tx", 5: "1\t2\tbar\ta\tx"}, 5),
    ])
    def test_first_bad_line_in_file_order(self, bad, line):
        with pytest.raises(DataError, match=f"^line {line}: "):
            data.parse_lines(lines_with(bad), VOCAB2, 2, 2)

    def test_within_a_line_the_one_line_order_holds(self):
        for text, expected in (("2\tfoo\t3", "expected 5"),
                               ("2\tfoo\t3\ta\tx", "label"),
                               ("1\tfoo\tinf\ta\tx", "dense field 0: not a number")):
            with pytest.raises(DataError, match=expected):
                data.parse_lines(lines_with({7: text}), VOCAB2, 2, 2)

    def test_build_vocab_names_the_line(self):
        with pytest.raises(DataError, match="^line 9: expected 5 tab-separated fields, got 2$"):
            data.build_vocab(lines_with({9: "1\t2"}), 2, 2)


class TestVocabShape:
    @pytest.mark.parametrize("fields", [1, 3])
    def test_field_count_mismatch(self, tmp_path, fields):
        vocab = data.FieldVocab([{"a": 1}] * fields)
        with pytest.raises(DataError, match=f"vocab has {fields} fields"):
            data.parse_criteo_line(GOOD + "\n", vocab, 2, 2)
        path = tmp_path / "rows.tsv"
        path.write_text(GOOD + "\n")
        with pytest.raises(DataError, match=f"vocab has {fields} fields"):
            data.load_tsv(path, vocab, 2, 2)

    @pytest.mark.parametrize("text", [
        "not json", "[]", "{}", '{"fields": {"a": 1}}', '{"fields": [["a", 1]]}',
        '{"fields": [{"a": "1"}]}', '{"fields": [{"a": 0}]}',
        '{"fields": [{"a": 2}]}', '{"fields": [{"a": true}]}'])
    def test_malformed_json(self, text):
        with pytest.raises(DataError):
            data.FieldVocab.from_json(text)


class TestBatchIter:
    def make(self, n=23):
        dense = np.arange(n, dtype=np.float64).reshape(n, 1)
        sparse = np.zeros((n, 1), dtype=np.int64)
        return data.Dataset(dense, sparse, np.zeros(n))

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
        sizes = [len(b) for b in data.batch_iter(ds, 4, seed=1)]
        assert sizes == [4, 4, 2]

    def test_empty_dataset(self):
        empty = data.Dataset(np.zeros((0, 1)), np.zeros((0, 1), dtype=np.int64),
                             np.zeros(0))
        with pytest.raises(DataError):
            next(data.batch_iter(empty, 4))

    def test_batch_size_zero_is_refused(self):
        with pytest.raises(DataError, match="batch_size must be >= 1, got 0"):
            next(data.batch_iter(self.make(), 0))

    def test_column_lengths_must_agree(self):
        with pytest.raises(DataError, match="column lengths differ: 2, 3, 2"):
            data.Dataset(np.zeros((2, 1)), np.zeros((3, 1), dtype=np.int64), np.zeros(2))


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

    def test_bayes_auc_stable_across_data_seeds(self):
        # same task (fixed task_seed), fresh instance draws per seed
        aucs = []
        for seed in (1, 2, 3):
            spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, seed=seed)
            sd = data.synth_generate(spec)
            aucs.append(metrics.auc(sd.scores[:spec.n_train], sd.train_dataset().labels))
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

    def test_validate_lists_every_problem(self):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, sparse_fields=1, n_valid=0,
                                   pair_coef=math.nan, dense_linear=(1.0,))
        assert [p.split(":")[0] for p in spec.validate()] == [
            "sparse_fields", "n_valid", "pair_coef", "dense_linear"]
        assert data.DEFAULT_SYNTH_SPEC.validate() == []
