"""Full model assembly: topology, parameter registry, checkpoints.

The registry owns every parameter in one flat float64 vector that the
layers, the optimizer, the finite-difference checks and the checkpoint
writer share: each layer array is a view into it. Its entry order is fixed
and documented (see ParamRegistry); random initialization draws and the
checkpoint payload follow it, so a seed pins every parameter bit-for-bit.
The dense parameters' gradient is a second flat vector, which the stages'
backward passes write through views; the embedding tables' gradient is
compact, one row per table row the batch looked up.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import layers
from .errors import CheckpointError, DimensionError, int_problems, is_int

CHECKPOINT_MAGIC = "xcrossnet-checkpoint"
CHECKPOINT_VERSION = 1

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
        # entries, and mlp_widths other than a list, are kept as given:
        # validate() rejects them
        self.vocab_sizes = tuple(self.vocab_sizes)
        if isinstance(self.mlp_widths, list):
            self.mlp_widths = tuple(self.mlp_widths)

    @classmethod
    def criteo_default(cls, vocab_sizes) -> "ModelConfig":
        return cls(dense_fields=13, sparse_fields=26, vocab_sizes=vocab_sizes)

    @property
    def dense_out_dim(self) -> int:
        """Width of the dense stage output [D, C_1, ..., C_L]."""
        return self.dense_fields * (self.cross_depth + 1)

    @property
    def x0_dim(self) -> int:
        """Width of the concatenated [dense out; sparse out] vector."""
        return self.dense_out_dim + 2 * self.product_size

    @property
    def mlp_input_dim(self) -> int:
        return 2 * self.x0_dim

    def validate(self) -> list[str]:
        """Collect every problem instead of stopping at the first.

        Every dimension, every entry of vocab_sizes and mlp_widths, and the
        seed must be a Python int (bool is not accepted), the seed >= 0 and
        the others >= 1; mlp_widths must be a tuple or list.
        """
        problems = int_problems({name: getattr(self, name) for name in (
            "dense_fields", "sparse_fields", "embed_dim", "product_size", "cross_depth")})
        if len(self.vocab_sizes) != self.sparse_fields:
            problems.append(
                f"vocab_sizes: got {len(self.vocab_sizes)} entries for "
                f"{self.sparse_fields} sparse fields")
        if not all(is_int(v) for v in self.vocab_sizes):
            problems.append(f"vocab_sizes: entries must be integers, got "
                            f"{list(self.vocab_sizes)!r}")
        elif any(v < 1 for v in self.vocab_sizes):
            problems.append("vocab_sizes: every field needs at least one category")
        if not isinstance(self.mlp_widths, tuple):
            problems.append(f"mlp_widths: expected a list of integers, "
                            f"got {self.mlp_widths!r}")
        elif not all(is_int(w) for w in self.mlp_widths):
            problems.append(f"mlp_widths: entries must be integers, got "
                            f"{list(self.mlp_widths)!r}")
        elif any(w < 1 for w in self.mlp_widths):
            problems.append("mlp_widths: widths must be >= 1")
        return problems + int_problems({"seed": self.seed}, low=0)

@dataclass
class ParamEntry:
    """One registry parameter: views of its values and of its gradient."""

    name: str
    values: np.ndarray       # a view into ParamRegistry.values
    grad: np.ndarray | None  # a view into ParamRegistry.grad; None on a table
    start: int               # offset of values in ParamRegistry.values

    def view(self, flat: np.ndarray) -> np.ndarray:
        """This entry's part of a vector laid out like ParamRegistry.values."""
        return flat[self.start:self.start + self.values.size].reshape(self.values.shape)

class ParamRegistry:
    """Every parameter in one flat float64 vector.

    Registry order: cross stack (w0, b0, w1, b1, ...), embedding tables in
    field order, product theta then order-1 weights, concat weight then
    bias, MLP (w0, b0, ...), output weight, output bias, each C-order
    raveled. Init draws and checkpoint bytes follow it.

    `values` holds the dense entries (all but the tables) in registry
    order, then the tables as one (sum vocab, K) block, `embed_block`;
    every entry's values, and every layer array, is a view into it. `grad`
    holds the dense entries' batch-mean gradient at their offsets in
    `values`: each entry's `grad` and the model's stage gradient carriers
    are views into it, which the stages' backward passes write in place.
    The tables' gradient is compact: `embed_rows` holds the sorted distinct
    block rows the last batch looked up, `embed_grad` one gradient row for
    each; every other row's gradient is zero. No table-sized one exists.
    """

    def __init__(self, shapes, embed: range = range(0)):
        """shapes: (name, shape) of every parameter in registry order;
        embed: the indices of the entries that form the embedding block,
        which must be adjacent and share their last dimension."""
        sizes = [math.prod(shape) for _, shape in shapes]
        placed = sorted(range(len(shapes)), key=lambda i: i in embed)  # dense first
        starts = dict(zip(placed, np.cumsum([0] + [sizes[i] for i in placed]).tolist()))
        self.values = np.zeros(sum(sizes))
        # written here, so that its pages fault at build, not in a timed step
        self.grad = np.full(sum(sizes) - sum(sizes[i] for i in embed), 0.0)
        k = shapes[embed.start][1][-1] if embed else 1
        self.embed_block = self.values[self.grad.size:].reshape(-1, k)
        self.embed_rows = np.zeros(0, dtype=np.intp)
        self.embed_grad = np.zeros((0, k))
        self.entries = []
        for i, ((name, shape), size) in enumerate(zip(shapes, sizes)):
            at = slice(starts[i], starts[i] + size)
            grad = None if i in embed else self.grad[at].reshape(shape)
            self.entries.append(ParamEntry(name, self.values[at].reshape(shape), grad, at.start))
        self._by_name = {e.name: e for e in self.entries}

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> ParamEntry:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a vector laid out like `values`: its dense run, which
        lines up with `grad`, and its (sum vocab, K) block."""
        n = self.grad.size
        return flat[:n], flat[n:].reshape(self.embed_block.shape)

    def get_grad_flat(self) -> np.ndarray:
        """The gradient densified like `values`, for gradchecks and tests."""
        flat = np.zeros(self.values.size)
        dense, block = self.split(flat)
        dense[...] = self.grad
        block[self.embed_rows] = self.embed_grad
        return flat

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != self.values.shape:
            raise DimensionError(
                f"set_flat: got {flat.shape}, expected ({self.values.size},)")
        self.values[...] = flat

def _layout(config: ModelConfig):
    """Yields (name, shape, draw) of every parameter in registry order, one
    at a time, so that a reader can stop early. draw is ("normal", std),
    ("uniform", bound) or None for a zero start."""
    m, n, k, t = (config.dense_fields, config.sparse_fields, config.embed_dim,
                  config.product_size)
    for l in range(config.cross_depth):
        yield from [(f"cross.w{l}", (m,), ("normal", 0.01)), (f"cross.b{l}", (m,), None)]
    yield from ((f"embed.field{i}", (v, k), ("normal", 0.01))
                for i, v in enumerate(config.vocab_sizes))
    yield from [("product.theta", (t, n), ("normal", 0.01)),
                ("product.order1", (t, n, k), ("normal", 0.01)),
                ("concat.w", (config.x0_dim,), ("normal", 0.01)),
                ("concat.b", (config.x0_dim,), None)]
    fan_in = config.mlp_input_dim
    for i, width in enumerate(config.mlp_widths):
        bound = np.sqrt(6.0 / (fan_in + width))
        yield from [(f"mlp.w{i}", (width, fan_in), ("uniform", bound)),
                    (f"mlp.b{i}", (width,), None)]
        fan_in = width
    yield from [("mlp.out_w", (fan_in,), ("uniform", np.sqrt(6.0 / (fan_in + 1)))),
                ("mlp.out_b", (1,), None)]

class XCrossNetModel:
    """The four stages wired together, plus the shared parameter registry.

    Every layer array is a view into the registry's value vector, so an
    update to the registry is an update to the layers.
    """

    def __init__(self, config: ModelConfig):
        """A model of config's shapes with every parameter zero."""
        self.config = config
        n_cross = 2 * config.cross_depth
        self.registry = ParamRegistry([(name, shape) for name, shape, _ in _layout(config)],
                                      embed=range(n_cross, n_cross + config.sparse_fields))
        self.embedding = layers.Embedding(self.registry.embed_block, config.vocab_sizes)
        self.cross, self.product, self.concat, self.mlp = self._dense_stages("values")
        # the backward passes' gradient carriers, over the registry's gradient
        self.cross_grad, self.product_grad, self.concat_grad, self.mlp_grad = \
            self._dense_stages("grad")

    def _dense_stages(self, attr: str):
        """The cross stack, ProductLayer, concat stage (a depth-one
        CrossStack) and Mlp over the `attr` views ("values" or "grad") of
        the registry's dense entries, which come in registry order: cross
        (w, b) pairs, then, after the tables, theta, order1, concat w and b,
        MLP (w, b) pairs, out w and b."""
        views = [getattr(e, attr) for e in self.registry if e.grad is not None]
        n_cross = 2 * self.config.cross_depth
        cross, rest = views[:n_cross], views[n_cross:]
        return (layers.CrossStack(cross[0::2], cross[1::2]), layers.ProductLayer(*rest[0:2]),
                layers.CrossStack(rest[2:3], rest[3:4]),
                layers.Mlp(rest[4:-2:2], rest[5:-2:2], *rest[-2:]))

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig) -> "XCrossNetModel":
        """Seeded initialization; identical seeds give bit-identical models.

        Draw order follows the registry: cross weights (N(0, 0.01)),
        embedding tables (N(0, 0.01)), product theta and order-1 weights
        (N(0, 0.01)), concat weight (N(0, 0.01)), MLP matrices (uniform
        +- sqrt(6 / (fan_in + fan_out))). Biases start at zero and draw
        nothing. Normal draws go straight into the value vector (a standard
        normal scaled in place is bitwise rng.normal(0, std)), so the
        tables need no temporary.
        """
        problems = config.validate()
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))
        model = cls(config)
        rng = np.random.default_rng(config.seed)
        for (_, _, draw), entry in zip(_layout(config), model.registry):
            if draw and draw[0] == "normal":
                rng.standard_normal(out=entry.values)
                entry.values *= draw[1]
            elif draw:
                entry.values[...] = rng.uniform(-draw[1], draw[1], entry.values.shape)
        return model

    # -- forward / backward -------------------------------------------------

    def forward(self, batch) -> tuple[np.ndarray, "ModelCache"]:
        """Probabilities in (0, 1) for the B rows of a batch, plus the cache.

        batch has (B, M) `dense` and (B, N) `sparse` columns, as a
        data.Dataset does; one instance is the B = 1 case. Each of the five
        stages runs once over the whole batch; the concat stage crosses
        X0 = [OC, OP], the dense and sparse stage outputs side by side.
        Returns the (B,) probabilities.
        """
        oc, cross_cache = layers.cross_forward(batch.dense, self.cross)
        e, embed_cache = layers.embed_forward(batch.sparse, self.embedding)
        op, product_cache = layers.product_forward(e, self.product)
        x0 = np.concatenate([oc, op], axis=1)
        h0, concat_cache = layers.concat_cross_forward(x0, self.concat)
        probs, mlp_cache = layers.mlp_forward(h0, self.mlp)
        return probs, ModelCache(cross_cache, embed_cache, product_cache,
                                 concat_cache, mlp_cache)

    def backward(self, cache: "ModelCache", labels) -> None:
        """Write the gradient of the batch's mean logloss into the registry.

        The sigmoid/logloss chain collapses to (prob - label) at each row's
        logit, so the pass starts there, scaled by 1 / B. Each stage's
        backward pass runs once over the batch. The dense stages write their
        parameter gradients, summed over the rows, straight into the
        registry's gradient vector through the carriers built at
        construction, and the embedding's compact (rows, grad) pair replaces
        the registry's. The concat stage's (B, x0_dim) input gradient splits
        at dense_out_dim into the dense and sparse stage outputs' gradients.
        The previous gradient is overwritten, not added to.
        """
        reg = self.registry
        labels = np.asarray(labels, dtype=np.float64)
        grad_logit = (cache.mlp.probs - labels) * (1.0 / len(labels))
        grad_h0 = layers.mlp_backward_logit(cache.mlp, grad_logit, self.mlp, self.mlp_grad)
        grad_x0 = layers.concat_cross_backward(cache.concat, grad_h0, self.concat,
                                               self.concat_grad)
        split = self.config.dense_out_dim
        grad_e = layers.product_backward(cache.product, grad_x0[:, split:], self.product,
                                         self.product_grad)
        reg.embed_rows, reg.embed_grad = layers.embed_backward(cache.embed, grad_e,
                                                               self.embedding)
        layers.cross_backward(cache.cross, grad_x0[:, :split], self.cross, self.cross_grad)

    # -- reporting ----------------------------------------------------------

    def num_parameters(self) -> dict[str, int]:
        """Parameter count per stage, from the registry entries' names."""
        counts = dict.fromkeys(("cross", "embedding", "product", "concat", "mlp"), 0)
        for entry in self.registry:
            stage = entry.name.split(".")[0]
            counts["embedding" if stage == "embed" else stage] += entry.values.size
        counts["total"] = sum(counts.values())
        return counts

@dataclass
class ModelCache:
    """One cache per stage, each covering the whole batch; the concat
    stage's is a CrossCache over X0."""

    cross: layers.CrossCache
    embed: np.ndarray  # (B, N) block rows
    product: layers.ProductCache
    concat: layers.CrossCache
    mlp: layers.MlpCache

def balance_index(config: ModelConfig) -> dict[str, float]:
    """(dense-out dim / sparse-out dim) / (dense fields / sparse fields).

    A value of 1 means the two representation branches are as wide,
    relative to each other, as the raw field counts are. "include_input"
    counts the copied raw input segment in the dense-out dim
    (M * (depth + 1)); "cross_only" counts just the cross vectors (M * depth).
    """
    op_dim, fields = 2 * config.product_size, config.dense_fields / config.sparse_fields
    return {"include_input": (config.dense_out_dim / op_dim) / fields,
            "cross_only": ((config.dense_out_dim - config.dense_fields) / op_dim) / fields}

# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# One file: a single JSON header line (format marker, version, config,
# per-stage parameter counts, registry ordering), a newline, then every
# parameter as little-endian float64, entry by entry in registry order
# (not the value vector's placement). Loading is bitwise exact.

def save_checkpoint(model: XCrossNetModel, path) -> None:
    """Write the checkpoint atomically: the bytes go to a temporary file
    beside `path`, which then replaces it, so a save that fails or is
    interrupted leaves any previous file at `path` as it was. Each entry's
    values are written from its view without a copy (converted first only
    on a big-endian host)."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "param_counts": model.num_parameters(),
        "registry": model.registry.names(),
    }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            for entry in model.registry:
                f.write(entry.values.astype("<f8", copy=False))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

def load_checkpoint(path) -> XCrossNetModel:
    """Read a checkpoint. Its registry and payload size are checked against
    its config before any parameter is allocated; each entry is then read
    straight into its view in the new model (through one entry-sized buffer
    only on a big-endian host), and a NaN or an infinity in it is refused,
    naming the entry."""
    with open(path, "rb") as f:
        header_line = f.readline()
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
            config = ModelConfig(**header["config"])
            problems = config.validate()
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint config: {exc}") from None
        if problems:
            raise CheckpointError("invalid checkpoint config: " + "; ".join(problems))
        names = header.get("registry")
        layout = list(itertools.islice(_layout(config), len(names) + 1)
                      if isinstance(names, list) else ())
        if [name for name, _, _ in layout] != names:
            raise CheckpointError("checkpoint registry ordering does not match config")
        payload = os.fstat(f.fileno()).st_size - f.tell()
        nbytes = 8 * sum(math.prod(shape) for _, shape, _ in layout)
        if payload != nbytes:
            raise CheckpointError(f"parameter blob has {payload} bytes, expected {nbytes}")
        model = XCrossNetModel(config)
        for entry in model.registry:  # min and max below find a NaN or inf with no bool array
            values = entry.values
            target = values if values.dtype == np.dtype("<f8") else np.empty(values.shape, "<f8")
            if f.readinto(memoryview(target).cast("B")) != values.nbytes:
                raise CheckpointError("parameter blob ended early")
            if target is not values:
                values[...] = target
            if not (math.isfinite(values.min()) and math.isfinite(values.max())):
                raise CheckpointError(f"parameter {entry.name} holds a non-finite value")
    return model
