"""Runs one benchmark workload in this process and writes a JSON result.

`run.py` starts this script in a fresh process with the BLAS thread
variables already set and `src` on PYTHONPATH. In "run" mode it generates
the workload's inputs from the seed (untimed), then times ingest, training
and prediction (see run_mode). In "setup" mode it only times package import
plus model init.
"""

import time

_IMPORT_START = time.perf_counter()
# The package is imported before anything else loads numpy, so the timed
# import includes numpy's own.
from xcrossnet import data, metrics, model, optim  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, install_tracer  # noqa: E402

MIN_FREQ = 10
LR = 1e-3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ids_per_field: int | None  # None selects the synthetic task
    n_train: int
    n_valid: int
    batch_size: int
    ingest_lines: int      # lines in the TSV the ingest phase reads
    entropy_check: bool    # training is long enough to beat the base rate
    round_train_rows: int  # rows of the timing-only training pass in each round
    smoke: bool = False

    def model_config(self, vocab_sizes) -> "model.ModelConfig":
        if self.smoke:
            return model.ModelConfig(
                dense_fields=self.n_dense, sparse_fields=self.n_sparse,
                vocab_sizes=vocab_sizes, embed_dim=4, product_size=4,
                cross_depth=1, mlp_widths=(8,))
        if self.ids_per_field is None:
            # the CLI's --synth desk scale (SYNTH_SCALE_DEFAULTS)
            return model.ModelConfig(
                dense_fields=self.n_dense, sparse_fields=self.n_sparse,
                vocab_sizes=vocab_sizes, embed_dim=8, product_size=8,
                cross_depth=3, mlp_widths=(64,))
        return model.ModelConfig.criteo_default(vocab_sizes)

    @property
    def n_dense(self) -> int:
        return data.DEFAULT_SYNTH_SPEC.dense_fields if self.ids_per_field is None \
            else inputs.N_DENSE

    @property
    def n_sparse(self) -> int:
        return data.DEFAULT_SYNTH_SPEC.sparse_fields if self.ids_per_field is None \
            else inputs.N_SPARSE


WORKLOADS = {
    w.name: w for w in (
        Workload("synth-train", None, data.DEFAULT_SYNTH_SPEC.n_train,
                 data.DEFAULT_SYNTH_SPEC.n_valid, 512,
                 ingest_lines=data.DEFAULT_SYNTH_SPEC.n_train,
                 entropy_check=True, round_train_rows=4096),
        # A training step takes about 15 s on a 2-vCPU host: rounds of it
        # would crowd out the ingest and predict passes.
        Workload("criteo-100k-train", 100_000, 128, 2048, 64, ingest_lines=8192,
                 entropy_check=False, round_train_rows=0),
    )
}


def workload(name: str, smoke: bool) -> Workload:
    """The named workload, or a tiny version of it for the smoke test."""
    w = WORKLOADS[name]
    if not smoke:
        return w
    synth = w.ids_per_field is None
    return dataclasses.replace(
        w, ids_per_field=None if synth else 50, n_train=96, n_valid=64,
        batch_size=32, ingest_lines=96 if synth else 160,
        round_train_rows=min(w.round_train_rows, 32), smoke=True)


class Phases:
    """Wall time and instance count of each phase; the index is the run id."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.log: list[dict] = []

    @contextmanager
    def __call__(self, name: str, instances: int):
        entry = {"phase": name, "instances": instances}
        if self.tracer is not None:
            self.tracer.run = len(self.log)
        self.log.append(entry)
        start = time.perf_counter()
        yield
        entry["seconds"] = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.run = -1


class Checks:
    def __init__(self):
        self.results: dict[str, list[bool]] = {}

    def add(self, name: str, ok) -> None:
        self.results.setdefault(name, []).append(bool(ok))


def base_rate_entropy(labels: np.ndarray) -> float:
    p = float(np.mean(labels))
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log1p(-p))


def expected_oov(true_ids: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Where ingestion must yield id 0: missing tokens and tokens seen fewer
    than MIN_FREQ times in the file."""
    rare = np.zeros_like(missing)
    for f in range(true_ids.shape[1]):
        present = ~missing[:, f]
        counts = np.bincount(true_ids[present, f], minlength=true_ids[:, f].max() + 1)
        rare[:, f] = present & (counts[true_ids[:, f]] < MIN_FREQ)
    return missing | rare


class Inputs:
    """Everything the workload feeds the package, made before any timing."""

    def __init__(self, w: Workload, seed: int, workdir: str):
        self.tsv = os.path.join(workdir, "ingest.tsv")
        if w.ids_per_field is None:
            spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, seed=seed,
                                       n_train=w.n_train, n_valid=w.n_valid)
            synth = data.synth_generate(spec)
            synth.write_tsv(self.tsv, os.path.join(workdir, "valid.tsv"))
            self.train, self.valid = synth.train_dataset(), synth.valid_dataset()
            self.vocab_sizes = synth.vocab().sizes()
            self.file_labels, self.file_dense = self.train.labels, self.train.dense
            self.file_ids = self.train.sparse
            self.file_missing = np.zeros(self.file_ids.shape, dtype=bool)
            self.properties = {"positive_rate": float(np.mean(synth.labels))}
            return
        rows = inputs.criteo_rows(seed, w.n_train + w.n_valid, w.ids_per_field)
        file_rows = inputs.criteo_rows([seed, 1], w.ingest_lines, w.ids_per_field)
        file_rows.write_tsv(self.tsv)
        self.file_labels, self.file_dense = file_rows.labels, file_rows.normalized_dense()
        self.file_ids, self.file_missing = file_rows.ids, file_rows.ids == 0
        self.properties = {
            "positive_rate": float(np.mean(rows.labels)),
            "unique_pair_share_per_batch": inputs.unique_pair_share(
                rows.ids[:w.n_train], w.batch_size),
        }
        self.vocab_sizes = (w.ids_per_field,) * inputs.N_SPARSE
        dense = rows.normalized_dense()
        self.train = data.Dataset(dense[:w.n_train], rows.ids[:w.n_train],
                                  rows.labels[:w.n_train])
        self.valid = data.Dataset(dense[w.n_train:], rows.ids[w.n_train:],
                                  rows.labels[w.n_train:])


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 cannot return the config
        return {"name": None, "version": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def child_machine() -> dict:
    return {
        "XCN_THREADS": os.environ.get("XCN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas_info(),
        "package_file": data.__file__,
    }


def ingest_pass(w: Workload, inp: Inputs, phases: Phases) -> "data.Dataset":
    with phases("ingest", w.ingest_lines):
        with open(inp.tsv) as lines:
            vocab = data.build_vocab(lines, w.n_dense, w.n_sparse, min_freq=MIN_FREQ)
        return data.load_tsv(inp.tsv, vocab, w.n_dense, w.n_sparse)


def check_ingest(w: Workload, inp: Inputs, checks: Checks, ds) -> None:
    oov = expected_oov(inp.file_ids, inp.file_missing)
    checks.add("ingest_matches_input",
               len(ds) == w.ingest_lines
               and np.array_equal(ds.labels, inp.file_labels)
               and np.array_equal(ds.dense, inp.file_dense)
               and np.array_equal(ds.sparse == 0, oov))
    present = ~inp.file_missing
    inp.properties["oov_share_after_min_freq"] = \
        float(np.count_nonzero((ds.sparse == 0) & present) / np.count_nonzero(present))


def predict(net, inp: Inputs, phases: Phases) -> tuple[np.ndarray, str]:
    with phases("predict", len(inp.valid)):
        preds = metrics.predict_dataset(net, inp.valid)
    return preds, hashlib.sha256(np.asarray(preds, dtype="<f8").tobytes()).hexdigest()


def train_pass(w: Workload, net, train, phases: Phases, checks: Checks) -> list[float]:
    """One fit pass; returns the inst/s of each step."""
    with phases("train", len(train)):
        records = optim.fit(net, train, optim.TrainConfig(
            lr=LR, batch_size=w.batch_size, epochs=1, eval_every=0))
    losses = [r["train_logloss"] for r in records]
    checks.add("train_losses_finite",
               len(losses) > 0 and all(math.isfinite(x) for x in losses))
    rows = [min(w.batch_size, len(train) - start)
            for start in range(0, len(train), w.batch_size)]
    step_s = np.diff([0.0] + [r["wall_ms"] / 1e3 for r in records])
    return [n / s for n, s in zip(rows, step_s)]


def rate(rates: list[float]) -> float:
    """A throughput: the 10th percentile of per-pass (or per-step) rates.

    On a shared host the same code runs up to 2x faster or slower for
    spells of seconds to minutes. Of the statistics tried (percentiles 0 to
    90, harmonic and trimmed means), the 10th percentile repeated best
    across seeds.
    """
    return float(np.percentile(rates, 10))


def run_mode(args, w: Workload) -> dict:
    """One checked ingest pass and a model init; rounds of an ingest and a
    predict pass for a quarter of --seconds; one training pass and the
    checked predict; then rounds again until --seconds have passed since
    the first ingest. Where the workload sets round_train_rows, the later
    rounds also train a second model. The rounds spread each metric's
    samples over the whole run. Predict passes on the same weights must
    agree bit for bit."""
    tracer = install_tracer() if args.trace else None
    phases, checks = Phases(tracer), Checks()
    inp = Inputs(w, args.seed, args.workdir)
    started = time.perf_counter()
    check_ingest(w, inp, checks, ingest_pass(w, inp, phases))

    with phases("setup", 1):
        net = model.XCrossNetModel.init(w.model_config(inp.vocab_sizes))
    init_s = phases.log[-1]["seconds"]
    untrained_digest = None
    while time.perf_counter() - started < args.seconds / 4:
        ingest_pass(w, inp, phases)
        digest = predict(net, inp, phases)[1]
        untrained_digest = untrained_digest or digest
        checks.add("predict_digest_repeats", digest == untrained_digest)

    step_rates = train_pass(w, net, inp.train, phases, checks)
    preds, digest = predict(net, inp, phases)
    checks.add("predictions_valid",
               preds.shape == (len(inp.valid),) and bool(np.all(np.isfinite(preds)))
               and bool(np.all((preds >= 0.0) & (preds <= 1.0))))
    val_logloss = optim.logloss(preds, inp.valid.labels)
    entropy = base_rate_entropy(inp.valid.labels)
    if w.entropy_check:
        checks.add("val_logloss_below_base_rate_entropy", val_logloss < entropy)

    if w.round_train_rows and args.seconds:
        # trains a second model, so that net's predictions stay fixed
        extra = model.XCrossNetModel.init(w.model_config(inp.vocab_sizes))
        n = w.round_train_rows
        extra_train = data.Dataset(inp.train.dense[:n], inp.train.sparse[:n],
                                   inp.train.labels[:n])
    while time.perf_counter() - started < args.seconds:
        ingest_pass(w, inp, phases)
        checks.add("predict_digest_repeats", predict(net, inp, phases)[1] == digest)
        if w.round_train_rows:
            step_rates += train_pass(w, extra, extra_train, phases, checks)

    def pass_rates(name):
        return [p["instances"] / p["seconds"] for p in phases.log if p["phase"] == name]

    rates = {"ingest": pass_rates("ingest"), "train": step_rates,
             "predict": pass_rates("predict")}
    result = {
        "setup_s": IMPORT_S + init_s,
        "ingest_lines_per_s": rate(rates["ingest"]),
        "train_inst_per_s": rate(rates["train"]),
        "predict_inst_per_s": rate(rates["predict"]),
        "val_logloss": val_logloss,
        "val_auc": metrics.auc(preds, inp.valid.labels),
        "base_rate_entropy": entropy,
        "digest": digest,
        "wall_s": sum(p["seconds"] for p in phases.log),
        "phases": phases.log,
        "rates": rates,
        "checks": checks.results,
        "inputs": inp.properties,
        "vocab_sizes": list(inp.vocab_sizes),
        "machine": child_machine(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.summary([p["instances"] for p in phases.log])
        np.savez(args.trace_out, names=np.array(tracer.names),
                 phase_names=np.array([p["phase"] for p in phases.log]),
                 phase_instances=np.array([p["instances"] for p in phases.log]),
                 **tracer.spans())
    return result


def setup_mode(args, w: Workload) -> dict:
    config = w.model_config(tuple(json.loads(args.vocab_sizes)))
    start = time.perf_counter()
    model.XCrossNetModel.init(config)
    return {"setup_s": IMPORT_S + time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", dest="trace_out")
    parser.add_argument("--vocab-sizes", dest="vocab_sizes")
    args = parser.parse_args()
    w = workload(args.workload, args.smoke)
    result = run_mode(args, w) if args.mode == "run" else setup_mode(args, w)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
