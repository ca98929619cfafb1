"""Full model assembly: topology, parameter registry, checkpoints.

The registry is the single flat view of every parameter array that the
optimizer, the finite-difference checks, and the checkpoint writer share.
Its ordering is fixed and documented (see ParamRegistry); random
initialization draws happen in exactly that order so a seed pins the whole
parameter vector bit-for-bit.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, asdict, field

import numpy as np

from . import layers
from .errors import CheckpointError, DimensionError

CHECKPOINT_MAGIC = "xcrossnet-checkpoint"
CHECKPOINT_VERSION = 1

#: The two conventions for counting the dense-stage output dimension in the
#: balance index: "include_input" counts the copied raw input segment
#: (M * (depth + 1)); "cross_only" counts just the cross vectors (M * depth).
BALANCE_CONVENTIONS = ("include_input", "cross_only")

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)

@dataclass
class ModelConfig:
    """Topology and init seed.

    The stock Criteo layout is dense_fields=13, sparse_fields=26,
    embed_dim=20, cross_depth=4, mlp_widths=(400, 400); product_size
    defaults to 100 so the sparse stage output (2T = 200) is of the same
    order as the dense stage output (65).
    """

    dense_fields: int
    sparse_fields: int
    vocab_sizes: tuple[int, ...]
    embed_dim: int = 20
    product_size: int = 100
    cross_depth: int = 4
    mlp_widths: tuple[int, ...] = (400, 400)
    seed: int = 0

    def __post_init__(self):
        # entries are kept as given: validate() rejects non-integers
        self.vocab_sizes = tuple(self.vocab_sizes)
        self.mlp_widths = tuple(self.mlp_widths)

    @classmethod
    def criteo_default(cls, vocab_sizes, seed: int = 0) -> "ModelConfig":
        return cls(dense_fields=13, sparse_fields=26, vocab_sizes=tuple(vocab_sizes),
                   embed_dim=20, product_size=100, cross_depth=4,
                   mlp_widths=(400, 400), seed=seed)

    @property
    def x0_dim(self) -> int:
        """Width of the concatenated [dense out; sparse out] vector."""
        return self.dense_fields * (self.cross_depth + 1) + 2 * self.product_size

    @property
    def mlp_input_dim(self) -> int:
        return 2 * self.x0_dim

    def validate(self) -> list[str]:
        """Collect every problem instead of stopping at the first.

        Every dimension, every entry of vocab_sizes and mlp_widths, and the
        seed must be a Python int (bool is not accepted).
        """
        problems = []
        for name in ("dense_fields", "sparse_fields", "embed_dim", "product_size",
                     "cross_depth"):
            value = getattr(self, name)
            if not _is_int(value):
                problems.append(f"{name}: must be an integer, got {value!r}")
            elif value < 1:
                problems.append(f"{name}: must be >= 1")
        if len(self.vocab_sizes) != self.sparse_fields:
            problems.append(
                f"vocab_sizes: got {len(self.vocab_sizes)} entries for "
                f"{self.sparse_fields} sparse fields")
        if not all(_is_int(v) for v in self.vocab_sizes):
            problems.append(f"vocab_sizes: entries must be integers, got "
                            f"{list(self.vocab_sizes)!r}")
        elif any(v < 1 for v in self.vocab_sizes):
            problems.append("vocab_sizes: every field needs at least one category")
        if not all(_is_int(w) for w in self.mlp_widths):
            problems.append(f"mlp_widths: entries must be integers, got "
                            f"{list(self.mlp_widths)!r}")
        elif any(w < 1 for w in self.mlp_widths):
            problems.append("mlp_widths: widths must be >= 1")
        if not _is_int(self.seed):
            problems.append(f"seed: must be an integer, got {self.seed!r}")
        return problems

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})

@dataclass
class ParamEntry:
    """One registry parameter: its values and its gradient.

    A row-sparse entry's grad is zero outside the rows recorded in
    `touched` since the last zero_grads; gradient goes in through
    add_rows, which records the rows it adds to.
    """

    name: str
    values: np.ndarray  # a direct reference to the layer's parameter array
    grad: np.ndarray    # same shape, owned by the registry
    row_sparse: bool = False
    touched: list[int] = field(default_factory=list)

    def add_rows(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """grad[ids[j]] += rows[j] for every j, in order (np.add.at), and
        record the ids as touched."""
        np.add.at(self.grad, ids, rows)
        self.touched.extend(ids.tolist())

    def rows(self):
        """Index of the rows that may hold gradient: the sorted touched rows
        of a row-sparse entry, every row of any other."""
        if not self.row_sparse:
            return slice(None)
        return np.unique(np.asarray(self.touched, dtype=np.intp))

class ParamRegistry:
    """Deterministic flat enumeration of every parameter array.

    Ordering: cross stack (w0, b0, w1, b1, ...), embedding tables in field
    order, product theta then order-1 weights, concat weight then bias,
    MLP (w0, b0, ...), output weight, output bias. All flat views use
    C-order raveling of the underlying arrays.

    The embedding tables are row-sparse entries: a batch's gradient lives
    on the rows it looked up, and zero_grads, scale_grads and the
    optimizer touch only those rows (see ParamEntry.rows). Every other
    entry is handled whole.
    """

    def __init__(self, entries: list[ParamEntry]):
        self.entries = entries
        self._by_name = {e.name: e for e in entries}

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> ParamEntry:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def total_size(self) -> int:
        return sum(e.values.size for e in self.entries)

    def zero_grads(self) -> None:
        for e in self.entries:
            e.grad[e.rows()] = 0.0
            e.touched.clear()

    def scale_grads(self, factor: float) -> None:
        for e in self.entries:
            e.grad[e.rows()] *= factor

    def get_flat(self) -> np.ndarray:
        return np.concatenate([e.values.ravel() for e in self.entries])

    def get_grad_flat(self) -> np.ndarray:
        return np.concatenate([e.grad.ravel() for e in self.entries])

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.total_size(),):
            raise DimensionError(
                f"set_flat: got {flat.shape}, expected ({self.total_size()},)")
        offset = 0
        for e in self.entries:
            n = e.values.size
            e.values[...] = flat[offset:offset + n].reshape(e.values.shape)
            offset += n

class XCrossNetModel:
    """The four stages wired together, plus the shared parameter registry."""

    def __init__(self, config: ModelConfig, cross: layers.CrossStack,
                 embedding: layers.Embedding, product: layers.ProductLayer,
                 concat: layers.ConcatCross, mlp: layers.Mlp):
        self.config = config
        self.cross = cross
        self.embedding = embedding
        self.product = product
        self.concat = concat
        self.mlp = mlp
        self.registry = self._build_registry()

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig) -> "XCrossNetModel":
        """Seeded initialization; identical seeds give bit-identical models.

        Draw order follows the registry: cross weights (N(0, 0.01)),
        embedding tables (N(0, 0.01)), product theta and order-1 weights
        (N(0, 0.01)), concat weight (N(0, 0.01)), MLP matrices (uniform
        +- sqrt(6 / (fan_in + fan_out))). Biases start at zero and draw
        nothing.
        """
        problems = config.validate()
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))
        rng = np.random.default_rng(config.seed)
        cross = layers.CrossStack.init(config.dense_fields, config.cross_depth, rng)
        embedding = layers.Embedding.init(config.vocab_sizes, config.embed_dim, rng)
        product = layers.ProductLayer.init(config.product_size, config.sparse_fields,
                                           config.embed_dim, rng)
        concat = layers.ConcatCross.init(config.x0_dim, rng)
        mlp = layers.Mlp.init(config.mlp_input_dim, config.mlp_widths, rng)
        return cls(config, cross, embedding, product, concat, mlp)

    @classmethod
    def zeros(cls, config: ModelConfig) -> "XCrossNetModel":
        """Allocate the right shapes without spending random draws."""
        zero_rng = _ZeroDraws()
        cross = layers.CrossStack.init(config.dense_fields, config.cross_depth, zero_rng)
        embedding = layers.Embedding.init(config.vocab_sizes, config.embed_dim, zero_rng)
        product = layers.ProductLayer.init(config.product_size, config.sparse_fields,
                                           config.embed_dim, zero_rng)
        concat = layers.ConcatCross.init(config.x0_dim, zero_rng)
        mlp = layers.Mlp.init(config.mlp_input_dim, config.mlp_widths, zero_rng)
        return cls(config, cross, embedding, product, concat, mlp)

    def _build_registry(self) -> ParamRegistry:
        entries = []

        def add(name, arr, row_sparse=False):
            entries.append(ParamEntry(name, arr, np.zeros_like(arr), row_sparse))

        for l in range(self.cross.depth):
            add(f"cross.w{l}", self.cross.weights[l])
            add(f"cross.b{l}", self.cross.biases[l])
        for i in range(self.embedding.n_fields):
            add(f"embed.field{i}", self.embedding.tables[i], row_sparse=True)
        add("product.theta", self.product.theta)
        add("product.order1", self.product.order1)
        add("concat.w", self.concat.weight)
        add("concat.b", self.concat.bias)
        for i in range(len(self.mlp.weights)):
            add(f"mlp.w{i}", self.mlp.weights[i])
            add(f"mlp.b{i}", self.mlp.biases[i])
        add("mlp.out_w", self.mlp.out_weight)
        add("mlp.out_b", self.mlp.out_bias)
        return ParamRegistry(entries)

    # -- forward / backward -------------------------------------------------

    def forward(self, batch) -> tuple[np.ndarray, "ModelCache"]:
        """Probabilities in (0, 1) for the B rows of a batch, plus the cache.

        batch has (B, M) `dense` and (B, N) `sparse` columns, as a
        data.Dataset does; one instance is the B = 1 case. Each of the five
        stages runs once over the whole batch. Returns the (B,)
        probabilities.
        """
        oc, cross_cache = layers.cross_forward(batch.dense, self.cross)
        e, embed_cache = layers.embed_forward(batch.sparse, self.embedding)
        op, product_cache = layers.product_forward(e, self.product)
        h0, concat_cache = layers.concat_cross_forward(oc, op, self.concat)
        probs, mlp_cache = layers.mlp_forward(h0, self.mlp)
        return probs, ModelCache(cross_cache, embed_cache, product_cache,
                                 concat_cache, mlp_cache)

    def backward(self, cache: "ModelCache", labels) -> None:
        """Accumulate the batch's summed logloss gradient into the registry.

        The sigmoid/logloss chain collapses to (prob - label) at each row's
        logit, so the pass starts there. Each stage's backward pass runs
        once over the batch, and its parameter gradients, summed over the
        rows, are added to the registry once. Each embedding table gets
        every row's gradient on that row's looked-up id, added in row order
        through ParamEntry.add_rows, which records the ids as touched.
        Callers zero_grad() before a batch and scale_grads(1 / B) afterwards
        to get the mean gradient.
        """
        grad_logit = cache.mlp.probs - np.asarray(labels, dtype=np.float64)
        grad_h0, mlp_grads = layers.mlp_backward_logit(cache.mlp, grad_logit, self.mlp)
        grad_oc, grad_op, concat_grads = layers.concat_cross_backward(
            cache.concat, grad_h0, self.concat)
        grad_e, product_grads = layers.product_backward(
            cache.product, grad_op, self.product)
        ids, embed_rows = layers.embed_backward(cache.embed, grad_e, self.embedding)
        _, cross_grads = layers.cross_backward(cache.cross, grad_oc, self.cross)

        reg = self.registry
        for l in range(self.cross.depth):
            reg[f"cross.w{l}"].grad += cross_grads.weights[l]
            reg[f"cross.b{l}"].grad += cross_grads.biases[l]
        for f in range(self.embedding.n_fields):
            reg[f"embed.field{f}"].add_rows(ids[:, f], embed_rows[:, f])
        reg["product.theta"].grad += product_grads.theta
        reg["product.order1"].grad += product_grads.order1
        reg["concat.w"].grad += concat_grads.weight
        reg["concat.b"].grad += concat_grads.bias
        for l in range(len(self.mlp.weights)):
            reg[f"mlp.w{l}"].grad += mlp_grads.weights[l]
            reg[f"mlp.b{l}"].grad += mlp_grads.biases[l]
        reg["mlp.out_w"].grad += mlp_grads.out_weight
        reg["mlp.out_b"].grad += mlp_grads.out_bias

    def zero_grad(self) -> None:
        self.registry.zero_grads()

    # -- reporting ----------------------------------------------------------

    def num_parameters(self) -> dict[str, int]:
        counts = {
            "cross": self.cross.param_count(),
            "embedding": self.embedding.param_count(),
            "product": self.product.param_count(),
            "concat": self.concat.param_count(),
            "mlp": self.mlp.param_count(),
        }
        counts["total"] = sum(counts.values())
        return counts

@dataclass
class ModelCache:
    """One cache per stage, each covering the whole batch."""

    cross: layers.CrossCache
    embed: layers.EmbedCache
    product: layers.ProductCache
    concat: layers.ConcatCache
    mlp: layers.MlpCache

class _ZeroDraws:
    """Stand-in generator whose draws are all zero (for shape allocation)."""

    def normal(self, loc, scale, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.zeros(size)

def balance_index(config: ModelConfig, convention: str = "include_input") -> float:
    """(dense-out dim / sparse-out dim) / (dense fields / sparse fields).

    A value of 1 means the two representation branches are as wide,
    relative to each other, as the raw field counts are.
    """
    if convention not in BALANCE_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {BALANCE_CONVENTIONS}, got {convention!r}")
    if convention == "include_input":
        oc_dim = config.dense_fields * (config.cross_depth + 1)
    else:
        oc_dim = config.dense_fields * config.cross_depth
    op_dim = 2 * config.product_size
    return (oc_dim / op_dim) / (config.dense_fields / config.sparse_fields)

# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# One file: a single JSON header line (format marker, version, config,
# per-stage parameter counts, registry ordering), a newline, then every
# parameter as little-endian float64 in registry order. Loading is bitwise
# exact.

def save_checkpoint(model: XCrossNetModel, path) -> None:
    """Write the checkpoint atomically: the bytes go to a temporary file
    beside `path`, which then replaces it, so a save that fails or is
    interrupted leaves any previous file at `path` as it was."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "param_counts": model.num_parameters(),
        "registry": model.registry.names(),
    }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            f.write(model.registry.get_flat().astype("<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

def load_checkpoint(path) -> XCrossNetModel:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a model checkpoint (bad format marker)")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r}, "
            f"this build reads version {CHECKPOINT_VERSION}")
    if not isinstance(header.get("config"), dict):
        raise CheckpointError("checkpoint header has no config object")
    try:
        config = ModelConfig.from_dict(header["config"])
        problems = config.validate()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint config: {exc}") from None
    if problems:
        raise CheckpointError("invalid checkpoint config: " + "; ".join(problems))
    model = XCrossNetModel.zeros(config)
    expected = model.registry.total_size()
    if header.get("registry") != model.registry.names():
        raise CheckpointError("checkpoint registry ordering does not match config")
    if len(blob) != 8 * expected:
        raise CheckpointError(
            f"parameter blob has {len(blob)} bytes, expected {8 * expected}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    model.registry.set_flat(flat)
    return model
