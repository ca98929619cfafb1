"""Command-line surface: train, eval, predict, gradcheck, synth, inspect.

Exit codes: 0 ok, 1 check failure, 2 usage/config error, 3 I/O or data
error, 4 numeric failure (a non-finite loss or prediction).

Every run is deterministic under fixed seeds and inputs, writes its
resolved configuration next to its outputs, and never mutates its inputs.
Stdout is machine-parseable key=value lines.
"""

import os


def _configure_threads() -> None:
    """Honor XCN_THREADS for BLAS pools; unset, 0 or anything but a
    positive integer leaves the library default.

    Must run before numpy is first imported, which is why this module does
    its heavy imports below and why the package __init__ stays numpy-free.
    """
    try:
        threads = int(os.environ.get("XCN_THREADS", ""))
    except ValueError:
        return
    if threads < 1:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))


_configure_threads()

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics, optim, oracle
from .errors import (CheckpointError, DataError, NumericError, XCrossNetError, int_problems,
                     is_number)
from .model import (ModelConfig, XCrossNetModel, balance_index, load_checkpoint,
                    save_checkpoint)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# The settings of ModelConfig (all but the vocab sizes, which the data
# determines; its seed also shuffles the batches) and of TrainConfig.
MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig) if f.name != "vocab_sizes")
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(optim.TrainConfig))
_CRITEO_DEFAULTS = {**{key: getattr(ModelConfig.criteo_default(()), key) for key in MODEL_KEYS},
                    **dataclasses.asdict(optim.TrainConfig())}

# Architecture/batch defaults of a --synth run, which the --config file and
# the flags override: the synthetic task is desk scale and does not need the
# Criteo-sized network.
SYNTH_SCALE_DEFAULTS = {
    "embed_dim": 8,
    "product_size": 8,
    "cross_depth": 3,
    "mlp_widths": (64,),
    "batch_size": 512,
}

# The settings of each kind of train run: a run on files takes the Criteo
# protocol and its files', a --synth run the desk scale and its data's.
RUN_DEFAULTS = {
    "file": {**_CRITEO_DEFAULTS, "train_data": None, "valid_data": None,
             "valid_fraction": 0.1, "min_freq": 10},
    "synth": {**_CRITEO_DEFAULTS, **SYNTH_SCALE_DEFAULTS,
              "dense_fields": data_mod.DEFAULT_SYNTH_SPEC.dense_fields,
              "sparse_fields": data_mod.DEFAULT_SYNTH_SPEC.sparse_fields,
              "synth": None, "synth_seed": None},
}
_RUN_NAMES = {"file": "a run on files", "synth": "a --synth run"}

GRADCHECK_DEFAULTS = dict(dense_fields=3, sparse_fields=4, vocab_size=5,
                          embed_dim=5, product_size=6, cross_depth=2,
                          mlp_widths=(8,))


def _parse_widths(text):
    """mlp_widths from comma-separated text; any other value as given."""
    if not isinstance(text, str):
        return text
    text = text.strip()
    if not text or text.lower() == "none":
        return ()
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise UsageError([f"mlp_widths: cannot parse {text!r}; "
                          "expected comma-separated integers"]) from None


def _echo(key, value) -> None:
    """Print key=value: a float as its repr, None (a score that one class
    leaves undefined) as unavailable."""
    if value is None:
        value = "unavailable"
    elif isinstance(value, float):
        value = repr(value)
    print(f"{key}={value}")


def _model_config(settings: dict, vocab_sizes) -> tuple[ModelConfig, list[str]]:
    """The ModelConfig of the MODEL_KEYS in settings, passed as given so
    that validate() rejects values of the wrong type, and validate()'s
    problems but those of vocab_sizes, which the caller derives."""
    config = ModelConfig(vocab_sizes=vocab_sizes, **{key: settings[key] for key in MODEL_KEYS})
    return config, [p for p in config.validate() if not p.startswith("vocab_sizes:")]


def _resolve_run_config(args) -> tuple[dict, optim.TrainConfig]:
    """The run settings: the defaults of the run's kind (--synth if the file
    or the flags give synth), then the --config file, then the flags, and a
    --synth run's synth_spec. Returns them and their TrainConfig; UsageError
    lists every bad one. The file's vocab_sizes, which train writes, is kept."""
    problems = []
    given, reloaded = {}, {}
    known = {**RUN_DEFAULTS["file"], **RUN_DEFAULTS["synth"]}  # in a fixed order
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                given = json.load(f)
        except OSError as exc:
            raise DataError(f"cannot read --config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError([f"config file: invalid JSON ({exc})"]) from None
        if not isinstance(given, dict):
            raise UsageError(["config file: expected a JSON object"])
        reloaded = {key: given.pop(key) for key in ("vocab_sizes", "synth_spec")
                    if key in given}
    given.update({key: getattr(args, key) for key in known
                  if getattr(args, key, None) is not None})
    kind, other = ("synth", "file") if given.get("synth") is not None else ("file", "synth")
    cfg = dict(RUN_DEFAULTS[kind])
    for key, value in given.items():
        if key in cfg:
            cfg[key] = value
        elif key not in known:
            problems.append(f"{key}: unknown config key")
        elif value != RUN_DEFAULTS[other][key]:  # older config.json files list both kinds'
            problems.append(f"{key}: not a setting of {_RUN_NAMES[kind]}")
    cfg["mlp_widths"] = _parse_widths(cfg["mlp_widths"])

    if kind == "file":
        if not cfg["train_data"]:
            problems.append("train_data: required unless --synth is used "
                            "(pass --train-data)")
        fraction = cfg["valid_fraction"]
        if not is_number(fraction) or not 0.0 <= fraction < 1.0:
            problems.append(f"valid_fraction: must be a number in [0, 1), got {fraction!r}")
        elif cfg["valid_data"] and fraction != RUN_DEFAULTS["file"]["valid_fraction"]:
            problems.append("valid_fraction: unused, as valid_data is given")
        problems += int_problems({"min_freq": cfg["min_freq"]})
    else:
        spec = data_mod.DEFAULT_SYNTH_SPEC
        if cfg["synth"] != "default":
            problems.append(f"synth: only 'default' is defined, got {cfg['synth']!r}")
        for key in ("dense_fields", "sparse_fields"):  # fixed by the synthetic data
            if cfg[key] != getattr(spec, key):
                problems.append(f"{key}: --synth default has {getattr(spec, key)}, "
                                f"got {cfg[key]!r}")
            cfg[key] = getattr(spec, key)
        if cfg["synth_seed"] is not None:
            problems += int_problems({"synth_seed": cfg["synth_seed"]}, low=0)
            spec = dataclasses.replace(spec, seed=cfg["synth_seed"])
        cfg["synth_spec"] = dataclasses.asdict(spec)
    derived = json.loads(json.dumps(cfg.get("synth_spec")))  # as train writes it
    file_spec = reloaded.pop("synth_spec", derived)
    if file_spec != derived:
        problems.append(f"synth_spec: the config file has {file_spec!r}, "
                        f"the run derives {derived!r}")
    cfg.update(reloaded)  # the vocab_sizes train wrote, which it compares with the data's
    # the data determines the vocab sizes; every other model setting is checked now
    problems += _model_config(cfg, ())[1]
    train_cfg = optim.TrainConfig(**{key: cfg[key] for key in TRAIN_KEYS})
    problems += train_cfg.validate()
    if problems:
        raise UsageError(problems)
    return cfg, train_cfg


def _load_training_data(cfg):
    """Returns (train_ds, valid_ds_or_None, vocab)."""
    if "synth_spec" in cfg:
        sdata = data_mod.synth_generate(data_mod.SynthSpec(**cfg["synth_spec"]))
        return sdata.train_dataset(), sdata.valid_dataset(), sdata.vocab()
    n_dense, n_sparse, path = cfg["dense_fields"], cfg["sparse_fields"], cfg["train_data"]
    n_train = None  # every line trains when --valid-data is given
    if not cfg["valid_data"]:
        # the held-out split is the tail of the training file
        n_lines = sum(1 for _ in data_mod.read_lines(path))
        n_train = n_lines - int(round(n_lines * cfg["valid_fraction"]))
    # vocab comes from the training split only; the file is streamed twice
    vocab = data_mod.build_vocab(itertools.islice(data_mod.read_lines(path), n_train),
                                 n_dense, n_sparse, min_freq=cfg["min_freq"])
    rows = data_mod.parse_lines(data_mod.read_lines(path), vocab, n_dense, n_sparse)
    train_ds = rows.subset(slice(None, n_train))
    if not len(train_ds):
        raise DataError("training split is empty")
    if cfg["valid_data"]:
        valid_ds = data_mod.load_tsv(cfg["valid_data"], vocab, n_dense, n_sparse)
    else:  # an empty tail means no validation
        valid_ds = rows.subset(slice(n_train, None)) or None
    return train_ds, valid_ds, vocab


def cmd_train(args) -> int:
    cfg, train_cfg = _resolve_run_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, valid_ds, vocab = _load_training_data(cfg)
    sizes = list(vocab.sizes())
    if cfg.get("vocab_sizes", sizes) != sizes:
        raise DataError(f"vocab_sizes: the config file has {cfg['vocab_sizes']!r}, "
                        f"the training data gives {sizes}")
    (out_dir / "config.json").write_text(
        json.dumps({**cfg, "vocab_sizes": sizes}, indent=2, sort_keys=True) + "\n")
    (out_dir / "vocab.json").write_text(vocab.to_json() + "\n")

    model = XCrossNetModel.init(_model_config(cfg, sizes)[0])
    checkpoint_path = out_dir / "checkpoint.xcn"
    log_path = out_dir / "train_log.ndjson"
    interrupted = False
    with open(log_path, "w") as log_file:
        def on_record(record):
            log_file.write(json.dumps(record) + "\n")
            if "val_logloss" in record:
                _echo("epoch", record["epoch"])
                _echo("val_auc", record["val_auc"])
                _echo("val_logloss", record["val_logloss"])

        try:
            records = optim.fit(model, train_ds, train_cfg, valid=valid_ds,
                                callbacks=[on_record])
        except KeyboardInterrupt:
            interrupted = True
    save_checkpoint(model, checkpoint_path)
    _echo("checkpoint", checkpoint_path)
    _echo("train_log", log_path)
    if interrupted:
        _echo("interrupted", "true")
        return 130
    if valid_ds is not None:
        final = records[-1]  # fit's validation of the last epoch, if it made one
        if "val_logloss" not in final:
            report = metrics.evaluate(metrics.predict_dataset(model, valid_ds), valid_ds.labels)
            final = {f"val_{key}": value for key, value in dataclasses.asdict(report).items()}
        for key in (f.name for f in dataclasses.fields(metrics.EvalReport)):
            _echo(f"final_{key}", final[f"val_{key}"])
    return EXIT_OK


def _scores(args) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and labels of --data under --checkpoint, forwarded chunk by chunk as
    parsed with --vocab (default: vocab.json next to the checkpoint); DataError unless
    that vocab maps no token past the model's embedding tables."""
    model = load_checkpoint(args.checkpoint)
    vocab_path = args.vocab or Path(args.checkpoint).parent / "vocab.json"
    try:
        vocab = data_mod.FieldVocab.from_json(Path(vocab_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read vocab {vocab_path} ({exc.strerror}); pass --vocab") from None
    except DataError as exc:
        raise DataError(f"cannot load vocab from {vocab_path}: {exc}") from None
    if any(v > m for v, m in zip(vocab.sizes(), model.config.vocab_sizes)):
        raise DataError(f"vocab {vocab_path} has sizes {vocab.sizes()}, more than "
                        f"the model's {tuple(model.config.vocab_sizes)}")
    preds, labels, n = [], [], 0
    for rows in data_mod.parse_chunks(data_mod.read_lines(args.data), vocab,
                                      model.config.dense_fields, model.config.sparse_fields):
        preds.append(metrics.predict_dataset(model, rows, row_offset=n))
        labels.append(rows.labels)
        n += len(rows)
    if not n:
        raise DataError(f"no instances in {args.data}")
    return np.concatenate(preds), np.concatenate(labels)


def cmd_eval(args) -> int:
    for key, value in dataclasses.asdict(metrics.evaluate(*_scores(args))).items():
        _echo(key, value)
    return EXIT_OK


def cmd_predict(args) -> int:
    preds, _ = _scores(args)
    with open(args.out, "w") as f:
        for p in preds:
            f.write(repr(float(p)) + "\n")
    _echo("predictions", args.out)
    _echo("n", len(preds))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    args.mlp_widths = _parse_widths(args.mlp_widths)
    config, problems = _model_config(vars(args), (args.vocab_size,) * args.sparse_fields)
    # the one vocab_size flag is checked as given, not as the per-field tuple
    problems += int_problems({"vocab_size": args.vocab_size, "instances": args.instances})
    problems += [f"{name}: must be a finite number > 0, got {value!r}"
                 for name, value in (("eps", args.eps), ("tolerance", args.tolerance))
                 if not (math.isfinite(value) and value > 0)]
    if problems:
        raise UsageError(problems)
    model, batch = oracle.gradcheck_point(config, args.seed,
                                          instances=args.instances)
    perturb = "cross.w0" if args.corrupt else None
    worst = oracle.gradcheck_model(model, batch, eps=args.eps,
                                   perturb_group=perturb)
    ok = True
    for entry in model.registry:
        err = worst[entry.name]
        status = "ok" if err < args.tolerance else "FAIL"
        print(f"gradcheck group={entry.name} size={entry.values.size} "
              f"max_rel_err={err:.3e} {status}")
        ok = ok and err < args.tolerance
    _echo("gradcheck_pass", "true" if ok else "false")
    _echo("tolerance", args.tolerance)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_synth(args) -> int:
    spec = data_mod.DEFAULT_SYNTH_SPEC
    spec = dataclasses.replace(spec, **{key: value for key, value in vars(args).items()
                                        if key in dataclasses.asdict(spec) and value is not None})
    problems = spec.validate()
    if problems:
        raise UsageError(problems)
    sdata = data_mod.synth_generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path, valid_path = out_dir / "train.tsv", out_dir / "valid.tsv"
    sdata.write_tsv(train_path, valid_path)
    (out_dir / "spec.json").write_text(json.dumps(dataclasses.asdict(spec), indent=2,
                                                  sort_keys=True) + "\n")
    _echo("train_tsv", train_path)
    _echo("valid_tsv", valid_path)
    _echo("n_train", spec.n_train)
    _echo("n_valid", spec.n_valid)
    n = spec.n_train
    _echo("positive_ratio_train", float(np.mean(sdata.labels[:n])))
    for split, rows in (("train", slice(None, n)), ("valid", slice(n, None))):
        np.savetxt(out_dir / f"{split}_scores.txt", sdata.scores[rows])
        _echo(f"bayes_auc_{split}", metrics.auc(sdata.scores[rows], sdata.labels[rows]))
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)
    for key, value in dataclasses.asdict(model.config).items():
        _echo(f"config.{key}", value)
    for stage, count in model.num_parameters().items():
        _echo(f"params.{stage}", count)
    for convention, value in balance_index(model.config).items():
        _echo(f"balance_index.{convention}", value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcrossnet",
        description="Train and inspect the XCrossNet CTR model. "
                    "Set XCN_THREADS to cap BLAS threads (0 = auto).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, **types):
        """One --the-name flag for each the_name=type."""
        for dest, kind in types.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind)

    def add_model_flags(p):
        add_flags(p, dense_fields=int, sparse_fields=int, embed_dim=int, product_size=int,
                  cross_depth=int)
        p.add_argument("--mlp-widths", dest="mlp_widths",
                       help="comma-separated hidden widths, e.g. 400,400; "
                            "'none' for no hidden layers")

    p_train = sub.add_parser("train", help="train a model, write checkpoint+log")
    p_train.add_argument("--config", help="JSON config file; flags override it")
    p_train.add_argument("--train-data", help="run on files: the training TSV")
    p_train.add_argument("--valid-data", help="run on files: the validation TSV")
    p_train.add_argument("--valid-fraction", type=float, help="run on files without "
                         "--valid-data: the held-out tail fraction of --train-data")
    p_train.add_argument("--min-freq", type=int,
                         help="run on files: tokens seen fewer times are OOV")
    p_train.add_argument("--synth", choices=["default"],
                         help="train on the built-in synthetic task")
    p_train.add_argument("--synth-seed", type=int,
                         help="--synth run: the seed of the instance draws")
    add_model_flags(p_train)
    add_flags(p_train, seed=int, lr=float, batch_size=int, l2=float, epochs=int,
              eval_every=int)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a TSV file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--vocab")
    p_eval.set_defaults(handler=cmd_eval)

    p_pred = sub.add_parser("predict", help="write one probability per input line")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--vocab")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(handler=cmd_predict)

    p_grad = sub.add_parser(
        "gradcheck",
        help="compare backward gradients with central finite differences")
    add_model_flags(p_grad)
    add_flags(p_grad, vocab_size=int)
    p_grad.set_defaults(**GRADCHECK_DEFAULTS)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--instances", type=int, default=3)
    p_grad.add_argument("--eps", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="negative control: perturb one gradient group "
                             "and expect the check to fail")
    p_grad.set_defaults(handler=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate the synthetic task as TSV")
    p_synth.add_argument("--out", required=True)
    add_flags(p_synth, dense_fields=int, sparse_fields=int, vocab_size=int, n_train=int,
              n_valid=int, seed=int, dense_cross_coef=float, pair_coef=float)
    p_synth.set_defaults(handler=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="print checkpoint config and "
                                               "parameter/balance diagnostics")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.set_defaults(handler=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except XCrossNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
