"""Criteo-format ingestion, batching, and the synthetic interaction task.

The on-disk format is the Kaggle Criteo TSV: one instance per line,
tab-separated as  label, M integer/real dense fields, N categorical
tokens, with empty strings for missing values. Gzipped files are handled
transparently by extension. The synthetic generator writes the same
schema, so the whole pipeline downstream of parsing is format-agnostic.

Dense normalization is the sign-safe log

    x >= 0  ->  log(1 + x)
    x <  0  -> -log(1 - x)

applied at parse time; it is stateless, so no statistic of any split can
leak into another.
"""

from __future__ import annotations

import gzip
import json
import math
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Vectorized logistic link, stable in both tails."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def normalize_dense(x: float) -> float:
    """Sign-safe log transform; maps 0 to 0 and preserves order and sign."""
    if x >= 0.0:
        return float(np.log1p(x))
    return float(-np.log1p(-x))


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    dense: np.ndarray   # (M,) float64, already normalized
    sparse: np.ndarray  # (N,) int64 category ids
    label: int          # 0 or 1


class Dataset:
    """In-memory column store: dense (n, M), sparse (n, N), labels (n,)."""

    def __init__(self, dense: np.ndarray, sparse: np.ndarray, labels: np.ndarray):
        dense = np.asarray(dense, dtype=np.float64)
        sparse = np.asarray(sparse, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.float64)
        if not (dense.shape[0] == sparse.shape[0] == labels.shape[0]):
            raise DataError(
                f"column lengths differ: {dense.shape[0]}, {sparse.shape[0]}, "
                f"{labels.shape[0]}")
        self.dense = dense
        self.sparse = sparse
        self.labels = labels

    def __len__(self) -> int:
        return self.dense.shape[0]

    @property
    def n_dense(self) -> int:
        return self.dense.shape[1]

    @property
    def n_sparse(self) -> int:
        return self.sparse.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.dense[idx], self.sparse[idx], self.labels[idx])


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


class FieldVocab:
    """Per-field token -> id maps; id 0 is reserved for missing/unknown."""

    def __init__(self, mappings: list[dict[str, int]]):
        self.mappings = mappings

    @property
    def n_fields(self) -> int:
        return len(self.mappings)

    def sizes(self) -> tuple[int, ...]:
        # +1 for the reserved OOV/missing id
        return tuple(len(m) + 1 for m in self.mappings)

    def lookup(self, field_idx: int, token: str) -> int:
        if not token:
            return 0
        return self.mappings[field_idx].get(token, 0)

    def to_json(self) -> str:
        return json.dumps({"fields": self.mappings}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FieldVocab":
        obj = json.loads(text)
        return cls([dict(m) for m in obj["fields"]])

    @classmethod
    def identity(cls, vocab_sizes) -> "FieldVocab":
        """Maps token "c<i>" to id i; "c0" is deliberately absent so it
        falls through to the reserved id 0, as any unknown token does."""
        return cls([{f"c{i}": i for i in range(1, v)} for v in vocab_sizes])


def open_maybe_gzip(path, mode="rt"):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def read_lines(path):
    with open_maybe_gzip(path) as f:
        for line in f:
            yield line


def build_vocab(lines, n_dense: int, n_sparse: int, min_freq: int = 10) -> FieldVocab:
    """One counting pass over raw training lines.

    Tokens seen at least min_freq times get ids 1.. in order of
    (count descending, token ascending); everything else maps to 0.
    """
    counters = [Counter() for _ in range(n_sparse)]
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 1 + n_dense + n_sparse:
            raise DataError(
                f"expected {1 + n_dense + n_sparse} tab-separated fields, "
                f"got {len(fields)}")
        for i in range(n_sparse):
            token = fields[1 + n_dense + i]
            if token:
                counters[i][token] += 1
    mappings = []
    for counter in counters:
        kept = sorted((t for t, c in counter.items() if c >= min_freq),
                      key=lambda t: (-counter[t], t))
        mappings.append({t: i + 1 for i, t in enumerate(kept)})
    return FieldVocab(mappings)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_criteo_line(line: str, vocab: FieldVocab, n_dense: int,
                      n_sparse: int) -> Instance:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 1 + n_dense + n_sparse:
        raise DataError(
            f"expected {1 + n_dense + n_sparse} tab-separated fields, "
            f"got {len(fields)}")
    if fields[0] not in ("0", "1"):
        raise DataError(f"label must be 0 or 1, got {fields[0]!r}")
    label = int(fields[0])
    dense = np.zeros(n_dense)
    for i in range(n_dense):
        token = fields[1 + i]
        if token:
            try:
                raw = float(token)
            except ValueError:
                raise DataError(f"dense field {i}: not a number: {token!r}") from None
            if not math.isfinite(raw):
                raise DataError(f"dense field {i}: not finite: {token!r}")
        else:
            raw = 0.0  # missing dense value -> 0 before normalization
        dense[i] = normalize_dense(raw)
    sparse = np.zeros(n_sparse, dtype=np.int64)
    for i in range(n_sparse):
        sparse[i] = vocab.lookup(i, fields[1 + n_dense + i])
    return Instance(dense, sparse, label)


def load_tsv(path, vocab: FieldVocab, n_dense: int, n_sparse: int) -> Dataset:
    dense_rows, sparse_rows, labels = [], [], []
    for line in read_lines(path):
        inst = parse_criteo_line(line, vocab, n_dense, n_sparse)
        dense_rows.append(inst.dense)
        sparse_rows.append(inst.sparse)
        labels.append(inst.label)
    if not labels:
        raise DataError(f"no instances in {path}")
    return Dataset(np.stack(dense_rows), np.stack(sparse_rows), np.array(labels))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_iter(dataset: Dataset, batch_size: int, seed=0, shuffle: bool = True):
    """Yield Dataset slices covering a full permutation of the data.

    The permutation is drawn from default_rng(seed); seed may be an int or
    a sequence of ints (the trainer passes (run_seed, epoch)). The last
    partial batch is yielded, not dropped.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle:
        perm = np.random.default_rng(seed).permutation(n)
    else:
        perm = np.arange(n)
    for start in range(0, n, batch_size):
        yield dataset.subset(perm[start:start + batch_size])


# ---------------------------------------------------------------------------
# synthetic interaction task
# ---------------------------------------------------------------------------


@dataclass
class SynthSpec:
    """Logistic generator with one dense x dense and one sparse x sparse cross.

    The score of an instance is

        score = <dense_linear, D> + sum_i effect[i][S_i]
                + dense_cross_coef * D_0 * D_1
                + pair_coef * [S_0 == pair[0] and S_1 == pair[1]]

    with D ~ Uniform[-1, 1]^M, each S_i uniform over its vocab, and
    label ~ Bernoulli(sigmoid(score)). The coefficients defining the task
    (per-category effects N(0, sparse_linear_scale) and, when not given
    explicitly, dense_linear N(0, dense_linear_scale)) are drawn from
    task_seed; seed drives only the instance draws. Regenerating with a
    new seed therefore samples fresh data from the *same* task, and the
    Bayes AUC moves only by sampling noise.

    The two cross terms are the part of the score no linear model can
    represent; the recorded true scores give the Bayes-optimal ranking.
    """

    dense_fields: int = 4
    sparse_fields: int = 4
    vocab_size: int = 4
    n_train: int = 50_000
    n_valid: int = 10_000
    seed: int = 2024
    task_seed: int = 77
    dense_cross_coef: float = 2.0
    pair_coef: float = 1.5
    pair: tuple[int, int] = (1, 2)
    dense_linear: tuple[float, ...] | None = None
    dense_linear_scale: float = 0.7
    sparse_linear_scale: float = 0.4

    def to_dict(self) -> dict:
        return asdict(self)


#: Desk-scale default used by `train --synth default` and the acceptance run.
DEFAULT_SYNTH_SPEC = SynthSpec()


@dataclass
class SynthData:
    """Generated instances plus the generating truth.

    raw_dense holds the pre-normalization draws (what the TSV files carry);
    the Dataset accessors apply the standard parse-time normalization so
    in-memory training matches a write-then-reparse round trip.
    """

    spec: SynthSpec
    raw_dense: np.ndarray  # (n, M) uniform draws
    sparse: np.ndarray     # (n, N) ids
    labels: np.ndarray     # (n,)
    scores: np.ndarray     # (n,) true logits

    def _dataset(self, sl: slice) -> Dataset:
        raw = self.raw_dense[sl]
        normalized = np.where(raw >= 0, np.log1p(np.maximum(raw, 0.0)),
                              -np.log1p(np.maximum(-raw, 0.0)))
        return Dataset(normalized, self.sparse[sl], self.labels[sl])

    def train_dataset(self) -> Dataset:
        return self._dataset(slice(0, self.spec.n_train))

    def valid_dataset(self) -> Dataset:
        return self._dataset(slice(self.spec.n_train, None))

    @property
    def train_scores(self) -> np.ndarray:
        return self.scores[:self.spec.n_train]

    @property
    def valid_scores(self) -> np.ndarray:
        return self.scores[self.spec.n_train:]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[:self.spec.n_train]

    @property
    def valid_labels(self) -> np.ndarray:
        return self.labels[self.spec.n_train:]

    def vocab(self) -> FieldVocab:
        return FieldVocab.identity([self.spec.vocab_size] * self.spec.sparse_fields)

    def write_tsv(self, train_path, valid_path) -> None:
        """Write both splits in the standard TSV schema (raw dense values)."""
        n_train = self.spec.n_train
        for path, rows in ((train_path, range(0, n_train)),
                           (valid_path, range(n_train, len(self.labels)))):
            with open(path, "w") as f:
                for r in rows:
                    # repr(float) round-trips exactly, so reparsing recovers
                    # the draws bit-for-bit
                    dense = "\t".join(repr(float(v)) for v in self.raw_dense[r])
                    toks = "\t".join(f"c{c}" for c in self.sparse[r])
                    f.write(f"{int(self.labels[r])}\t{dense}\t{toks}\n")


def synth_generate(spec: SynthSpec) -> SynthData:
    """Draw the task coefficients from task_seed, then the data from seed.

    Draw order (fixed for reproducibility): per-category effects and, if
    unspecified, the dense linear coefficients from task_seed; then dense
    values, category ids, and label uniforms from seed.
    """
    m, n_fields, v = spec.dense_fields, spec.sparse_fields, spec.vocab_size
    if m < 2 or n_fields < 2:
        raise DataError("synth task needs at least 2 dense and 2 sparse fields")
    if not (0 <= spec.pair[0] < v and 0 <= spec.pair[1] < v):
        raise DataError(f"designated pair {spec.pair} outside vocab {v}")
    n = spec.n_train + spec.n_valid
    task_rng = np.random.default_rng(spec.task_seed)
    effects = task_rng.normal(0.0, spec.sparse_linear_scale, (n_fields, v))
    if spec.dense_linear is None:
        dense_linear = task_rng.normal(0.0, spec.dense_linear_scale, m)
    else:
        if len(spec.dense_linear) != m:
            raise DataError(
                f"dense_linear has {len(spec.dense_linear)} coefficients "
                f"for {m} fields")
        dense_linear = np.asarray(spec.dense_linear, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    raw_dense = rng.uniform(-1.0, 1.0, (n, m))
    sparse = rng.integers(0, v, (n, n_fields))
    scores = raw_dense @ dense_linear
    for i in range(n_fields):
        scores += effects[i][sparse[:, i]]
    scores += spec.dense_cross_coef * raw_dense[:, 0] * raw_dense[:, 1]
    pair_hit = (sparse[:, 0] == spec.pair[0]) & (sparse[:, 1] == spec.pair[1])
    scores += spec.pair_coef * pair_hit
    labels = (rng.uniform(0.0, 1.0, n) < stable_sigmoid(scores)).astype(np.float64)
    return SynthData(spec, raw_dense, sparse, labels, scores)
