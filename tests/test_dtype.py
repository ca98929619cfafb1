"""The model's dtype: float32 by default, float64 as the checked reference.

A silent float64 upcast inside a float32 step keeps every result right and
loses only the speed, so the audit below is the test that catches one.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from xcrossnet import data, metrics, optim
from xcrossnet.model import (INIT_CHUNK, ModelConfig, XCrossNetModel, load_checkpoint,
                             save_checkpoint)

CONFIG = ModelConfig(dense_fields=4, sparse_fields=4, vocab_sizes=(6,) * 4, embed_dim=4,
                     product_size=3, cross_depth=2, mlp_widths=(8, 5), seed=2)


def rows(config, n, seed):
    rng = np.random.default_rng(seed)
    return data.Dataset(rng.uniform(-1, 1, (n, config.dense_fields)),
                        np.column_stack([rng.integers(0, v, n) for v in config.vocab_sizes]),
                        rng.integers(0, 2, n).astype(np.float64))


def arrays(obj, path):
    """(path, array) for every array in obj, a dataclass, sequence or array."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from arrays(getattr(obj, field.name), f"{path}.{field.name}")


def test_default_dtype_is_float32():
    assert CONFIG.dtype == "float32"
    assert ModelConfig.criteo_default((3,) * 26).dtype == "float32"


def test_float32_step_and_predict_keep_every_array_float32(monkeypatch):
    # the registry, Adam's state and the forward cache after a fit step and
    # a predict; only the probabilities, the embedding's block rows and
    # Adam's slot map are of another dtype, by design
    model = XCrossNetModel.init(CONFIG)
    states, adam_step = [], optim.adam_step

    def recording_step(registry, state, *args):
        states.append(state)
        adam_step(registry, state, *args)

    monkeypatch.setattr(optim, "adam_step", recording_step)
    optim.fit(model, rows(CONFIG, 16, 0), optim.TrainConfig(batch_size=16, eval_every=0))
    preds = metrics.predict_dataset(model, rows(CONFIG, 8, 1))
    cache = model.forward(rows(CONFIG, 8, 1))[1]
    reg = model.registry
    found = [("values", reg.values), ("grad", reg.grad), ("embed_grad", reg.embed_grad),
             *arrays(states[0], "state"), *arrays(cache, "cache")]
    other = {"state.slots": np.int32, "cache.embed": np.int64, "cache.mlp.probs": np.float64}
    assert len(states) == 1 and reg.embed_grad.size and len(found) >= 20
    assert {path: a.dtype for path, a in found} == \
        {path: np.dtype(other.get(path, np.float32)) for path, _ in found}
    assert preds.dtype == np.float64


def test_float32_reruns_are_bitwise():
    # at this process's fixed thread count
    def run():
        model = XCrossNetModel.init(CONFIG)
        log = optim.fit(model, rows(CONFIG, 96, 3), optim.TrainConfig(
            batch_size=32, epochs=2, eval_every=0))
        return model.registry.values.tobytes(), [r["train_logloss"] for r in log]

    assert run() == run()


def test_float32_init_rounds_the_float64_draws():
    # the same stream, rounded entry by entry
    want = XCrossNetModel.init(dataclasses.replace(CONFIG, dtype="float64")).registry.values
    assert XCrossNetModel.init(CONFIG).registry.values.tobytes() == \
        want.astype(np.float32).tobytes()


def test_float32_init_holds_one_piece_sized_float64_buffer():
    # vocab 10^5 x 3: the values and float64 pieces of INIT_CHUNK values,
    # never a float64 copy of a table, let alone of the (sum vocab, K) block
    config = dataclasses.replace(CONFIG, sparse_fields=3, vocab_sizes=(100_000,) * 3)
    XCrossNetModel.init(CONFIG)  # what a first init allocates once is not traced
    tracemalloc.start()
    try:
        model = XCrossNetModel.init(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = model.registry.values
    piece = 8 * INIT_CHUNK
    assert values.nbytes + piece <= peak < values.nbytes + 1.5 * piece
    assert 8 * model.registry["embed.field0"].values.size >= 6 * piece


def test_float32_checkpoint_round_trips_bitwise(tmp_path):
    model = XCrossNetModel.init(CONFIG)
    save_checkpoint(model, tmp_path / "a.xcn")
    header, _, payload = (tmp_path / "a.xcn").read_bytes().partition(b"\n")
    assert json.loads(header)["config"]["dtype"] == "float32"
    assert len(payload) == 4 * model.registry.values.size
    loaded = load_checkpoint(tmp_path / "a.xcn")
    assert loaded.config == model.config
    assert loaded.registry.values.dtype == np.float32
    assert loaded.registry.values.tobytes() == model.registry.values.tobytes()
    save_checkpoint(loaded, tmp_path / "b.xcn")
    assert (tmp_path / "b.xcn").read_bytes() == (tmp_path / "a.xcn").read_bytes()


def test_version_1_file_loads_bitwise_as_float64(tmp_path):
    # a version-1 file as it was written before the dtype existed: no dtype
    # in the config, each entry as "<f8" in registry order
    model = XCrossNetModel.init(dataclasses.replace(CONFIG, dtype="float64"))
    config = dataclasses.asdict(model.config)
    del config["dtype"]
    header = {"format": "xcrossnet-checkpoint", "version": 1, "config": config,
              "param_counts": model.num_parameters(), "registry": model.registry.names()}
    payload = b"".join(e.values.astype("<f8").tobytes() for e in model.registry)
    (tmp_path / "v1.xcn").write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                                      + payload)
    loaded = load_checkpoint(tmp_path / "v1.xcn")
    assert loaded.config == model.config
    assert loaded.registry.values.dtype == np.float64
    assert loaded.registry.values.tobytes() == model.registry.values.tobytes()
    # saved again, it is a version-2 float64 file with the same payload
    save_checkpoint(loaded, tmp_path / "v2.xcn")
    header2, _, payload2 = (tmp_path / "v2.xcn").read_bytes().partition(b"\n")
    assert json.loads(header2)["version"] == 2 and payload2 == payload


@pytest.mark.parametrize("dtype", ["float16", np.float32, None])
def test_validate_lists_a_bad_dtype_with_the_other_problems(dtype):
    bad = dataclasses.replace(CONFIG, embed_dim=0, dtype=dtype)
    problems = bad.validate()
    assert [p.split(":")[0] for p in problems] == ["embed_dim", "dtype"]
    assert problems[1] == f"dtype: must be one of float32, float64, got {dtype!r}"
    with pytest.raises(ValueError, match="dtype"):
        XCrossNetModel.init(bad)
