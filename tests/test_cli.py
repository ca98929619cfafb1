import dataclasses
import gzip
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from xcrossnet import cli, data, metrics, optim
from xcrossnet.errors import NumericError, XCrossNetError
from xcrossnet.model import XCrossNetModel, ModelConfig, load_checkpoint, save_checkpoint


def run_cli(argv, capsys):
    """Run the CLI; no stdout line may print a value as None."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert "None" not in kv(captured.out).values(), captured.out
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    code = cli.main(["synth", "--out", str(out),
                     "--n-train", "1200", "--n-valid", "400"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = cli.main([
        "train", "--train-data", str(synth_dir / "train.tsv"),
        "--valid-data", str(synth_dir / "valid.tsv"),
        "--dense-fields", "4", "--sparse-fields", "4",
        "--embed-dim", "4", "--product-size", "4", "--cross-depth", "2",
        "--mlp-widths", "16", "--epochs", "2", "--batch-size", "256",
        "--lr", "0.01", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthrun")
    code = cli.main(["train", "--synth", "default", "--synth-seed", "5", "--epochs", "1",
                     "--out", str(out)])
    assert code == 0
    return out


TRAIN_FLAGS = ["--dense-fields", "4", "--sparse-fields", "4",
               "--embed-dim", "4", "--product-size", "4", "--cross-depth", "2",
               "--mlp-widths", "16", "--epochs", "2", "--batch-size", "256",
               "--lr", "0.01", "--seed", "3"]


class TestSynth:
    def test_outputs_and_bayes(self, synth_dir, capsys):
        assert (synth_dir / "train.tsv").exists()
        assert (synth_dir / "valid.tsv").exists()
        assert (synth_dir / "spec.json").exists()
        code, out, _ = run_cli(["synth", "--out", str(synth_dir),
                                "--n-train", "1200", "--n-valid", "400"], capsys)
        assert code == 0
        pairs = kv(out)
        assert 0.5 < float(pairs["bayes_auc_valid"]) < 1.0
        assert pairs["n_train"] == "1200"

    def test_rerun_bitwise_identical(self, synth_dir, tmp_path, capsys):
        code, _, _ = run_cli(["synth", "--out", str(tmp_path),
                              "--n-train", "1200", "--n-valid", "400"], capsys)
        assert code == 0
        assert (tmp_path / "train.tsv").read_bytes() == \
               (synth_dir / "train.tsv").read_bytes()

    @pytest.mark.parametrize("flags, name", [
        (["--n-train", "0"], "n_train"), (["--n-valid", "0"], "n_valid"),
        (["--n-train", "-1"], "n_train"), (["--vocab-size", "0"], "vocab_size"),
        (["--vocab-size", "2"], "vocab_size"), (["--dense-fields", "0"], "dense_fields"),
        (["--seed", "-1"], "seed"), (["--dense-cross-coef", "nan"], "dense_cross_coef"),
        (["--pair-coef", "inf"], "pair_coef"),
    ])
    def test_bad_flag_is_usage_error_and_writes_nothing(self, flags, name, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(["synth", "--out", str(out), *flags], capsys)
        assert code == 2
        assert f"config error: {name}" in err
        assert not out.exists()

    def test_writes_the_true_scores_of_each_split(self, synth_dir):
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=1200, n_valid=400)
        scores = data.synth_generate(spec).scores
        assert np.array_equal(np.loadtxt(synth_dir / "train_scores.txt"), scores[:1200])
        assert np.array_equal(np.loadtxt(synth_dir / "valid_scores.txt"), scores[1200:])

    def test_one_class_split_has_no_bayes_auc(self, tmp_path, capsys):
        # a split of one instance holds one class: its AUC is absent, as in eval
        code, out, _ = run_cli(["synth", "--out", str(tmp_path),
                                "--n-train", "1", "--n-valid", "1"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["bayes_auc_train"] == pairs["bayes_auc_valid"] == "unavailable"


class TestTrain:
    def test_writes_artifacts(self, trained_dir):
        for name in ("checkpoint.xcn", "vocab.json", "config.json",
                     "train_log.ndjson"):
            assert (trained_dir / name).exists(), name
        records = [json.loads(line) for line in
                   (trained_dir / "train_log.ndjson").read_text().splitlines()]
        assert all("train_logloss" in r for r in records)
        assert any("val_auc" in r for r in records)
        resolved = json.loads((trained_dir / "config.json").read_text())
        assert resolved["lr"] == 0.01
        assert resolved["vocab_sizes"] == [5, 5, 5, 5]

    def test_runtime_json_records_what_a_bitwise_rerun_needs(self, trained_dir):
        # the thread settings in effect and the numpy and BLAS builds
        runtime = json.loads((trained_dir / "runtime.json").read_text())
        assert set(runtime) == {"XCN_THREADS", *cli.THREAD_VARS, "blas_threads", "numpy",
                                "blas"}
        for var in ("XCN_THREADS", *cli.THREAD_VARS):
            assert runtime[var] == os.environ.get(var)
        assert runtime["blas_threads"] == cli._blas_threads()
        assert runtime["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert runtime["blas"] == {"name": blas["name"], "version": blas["version"]}

    def test_runtime_without_a_build_config(self, monkeypatch):
        # numpy before 1.26 has no show_config(mode=...): the BLAS is unknown
        def old_show_config(*args, **kwargs):
            if kwargs:
                raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(cli.np, "show_config", old_show_config)
        assert cli._runtime()["blas"] == {"name": None, "version": None}

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    def test_runtime_records_the_blas_thread_count(self, threads):
        # the count the library runs with, read from it: with every thread
        # variable unset, OpenBLAS picks its own, at most the core count
        env = {key: value for key, value in os.environ.items()
               if key not in ("XCN_THREADS", *cli.THREAD_VARS)}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", "import json; from xcrossnet import cli; "
                              "print(json.dumps(cli._runtime()))"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        count = json.loads(run.stdout)["blas_threads"]
        if threads:
            assert count == int(threads)
        else:
            assert type(count) is int and 1 <= count <= os.cpu_count()

    def test_blas_threads_are_null_without_a_known_getter(self, monkeypatch):
        monkeypatch.setattr(cli, "BLAS_THREAD_GETTERS", ("no_such_getter",))
        assert cli._runtime()["blas_threads"] is None

    def test_rerun_checkpoint_bitwise_identical(self, synth_dir, trained_dir,
                                                tmp_path, capsys):
        code, _, _ = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             "--valid-data", str(synth_dir / "valid.tsv"),
             *TRAIN_FLAGS, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "checkpoint.xcn").read_bytes() == \
               (trained_dir / "checkpoint.xcn").read_bytes()

    def test_missing_train_data_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["train", "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert "train_data" in err
        assert not (tmp_path / "run").exists()

    def test_default_settings(self):
        # ModelConfig's Criteo layout and TrainConfig's defaults, written
        # out here so that a changed dataclass default shows
        args = cli.build_parser().parse_args(["train", "--train-data", "f", "--out", "d"])
        cfg, _ = cli._resolve_run_config(args)
        assert cfg == {
            "dense_fields": 13, "sparse_fields": 26, "embed_dim": 20, "product_size": 100,
            "cross_depth": 4, "mlp_widths": (400, 400), "seed": 0, "dtype": "float32",
            "lr": 0.001, "batch_size": 4096, "l2": 1e-4, "epochs": 1, "eval_every": 1,
            "train_data": "f", "valid_data": None, "valid_fraction": 0.1, "min_freq": 10}

    def test_synth_default_settings(self):
        # the desk scale, and the synthetic data's field counts and spec
        args = cli.build_parser().parse_args(["train", "--synth", "default", "--out", "d"])
        cfg, _ = cli._resolve_run_config(args)
        assert cfg == {
            "dense_fields": 4, "sparse_fields": 4, "embed_dim": 8, "product_size": 8,
            "cross_depth": 3, "mlp_widths": (64,), "seed": 0, "dtype": "float32",
            "lr": 0.001, "batch_size": 512, "l2": 1e-4, "epochs": 1, "eval_every": 1,
            "synth": "default", "synth_seed": None,
            "synth_spec": dataclasses.asdict(data.DEFAULT_SYNTH_SPEC)}

    @pytest.mark.parametrize("flags, problem", [
        (["--synth", "default", "--train-data", "t.tsv"],
         "train_data: not a setting of a --synth run"),
        (["--synth", "default", "--valid-data", "v.tsv"],
         "valid_data: not a setting of a --synth run"),
        (["--synth", "default", "--min-freq", "500"],
         "min_freq: not a setting of a --synth run"),
        (["--synth", "default", "--valid-fraction", "0.5"],
         "valid_fraction: not a setting of a --synth run"),
        (["--train-data", "t.tsv", "--synth-seed", "99"],
         "synth_seed: not a setting of a run on files"),
        (["--train-data", "t.tsv", "--valid-data", "v.tsv", "--valid-fraction", "0.5"],
         "valid_fraction: unused, as valid_data is given"),
    ], ids=["synth_train_data", "synth_valid_data", "synth_min_freq", "synth_valid_fraction",
            "file_synth_seed", "file_valid_fraction_with_valid_data"])
    def test_unused_setting_is_usage_error(self, tmp_path, capsys, flags, problem):
        # not ignored: the run would train as if it had not been given
        code, out, err = run_cli(["train", *flags, "--epochs", "0",
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {problem}\n"
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_listed(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1, "lr": 0.01}))
        code, _, err = run_cli(["train", "--config", str(cfg_path),
                                "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert "learning_rate" in err
        assert not (tmp_path / "run").exists()

    def test_config_file_not_an_object_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        code, _, err = run_cli(["train", "--config", str(cfg_path),
                                "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert "JSON object" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("contents, code, message", [
        (None, 3, "cannot read --config file"), ("{", 2, "config file: invalid JSON")],
        ids=["unreadable", "invalid_json"])
    def test_config_file_unreadable_or_not_json(self, tmp_path, capsys, contents, code,
                                                message):
        cfg_path = tmp_path / "cfg.json"
        if contents is not None:
            cfg_path.write_text(contents)
        got, _, err = run_cli(["train", "--config", str(cfg_path),
                               "--out", str(tmp_path / "run")], capsys)
        assert got == code
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("run, older_keys", [
        ("synth", {}), ("file", {}),
        ("synth", dict(train_data=None, valid_data=None, valid_fraction=0.1, min_freq=10)),
        ("file", dict(synth=None, synth_seed=None))],
        ids=["synth", "file", "synth_older", "file_older"])
    def test_written_config_reloads_to_the_same_checkpoint(self, synth_run, trained_dir,
                                                          tmp_path, capsys, run, older_keys):
        # config.json also holds what train derives (vocab_sizes, synth_spec);
        # older ones also list the other kind of run's settings at their defaults
        first = synth_run if run == "synth" else trained_dir
        cfg_path = self.edited_config(first, tmp_path, **older_keys) if older_keys \
            else first / "config.json"
        code, _, err = run_cli(["train", "--config", str(cfg_path),
                                "--out", str(tmp_path)], capsys)
        assert code == 0, err
        assert (tmp_path / "checkpoint.xcn").read_bytes() == \
               (first / "checkpoint.xcn").read_bytes()

    @staticmethod
    def edited_config(run_dir, tmp_path, **edits):
        cfg = json.loads((run_dir / "config.json").read_text())
        for key, value in edits.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_edited_synth_spec_is_usage_error(self, synth_run, tmp_path, capsys):
        # a reloaded synth_spec must be the one the run derives
        cfg_path = self.edited_config(synth_run, tmp_path, synth_spec={"n_train": 10})
        code, out, err = run_cli(["train", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert "synth_spec: the config file has {" in err and "'n_train': 10" in err
        assert not (tmp_path / "run").exists()

    def test_edited_vocab_sizes_is_data_error(self, synth_run, tmp_path, capsys):
        # a reloaded vocab_sizes must be the one the training data gives
        cfg_path = self.edited_config(synth_run, tmp_path, vocab_sizes=[99, 99, 99, 99])
        code, out, err = run_cli(["train", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 3 and out == ""
        assert "vocab_sizes: the config file has [99, 99, 99, 99], " \
               "the training data gives [4, 4, 4, 4]" in err
        assert not (tmp_path / "run" / "config.json").exists()

    def test_synth_keeps_config_file_keys(self, tmp_path):
        # keys the --config file sets are not replaced by the synth-scale
        # defaults; keys it leaves out are
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"batch_size": 128, "embed_dim": 6}))
        args = cli.build_parser().parse_args(
            ["train", "--synth", "default", "--config", str(cfg_path),
             "--out", str(tmp_path)])
        cfg, _ = cli._resolve_run_config(args)
        assert cfg["batch_size"] == 128 and cfg["embed_dim"] == 6
        assert cfg["product_size"] == cli.SYNTH_SCALE_DEFAULTS["product_size"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_synth_field_count_mismatch_is_usage_error(self, tmp_path, capsys, source):
        # the synthetic data has 4 dense and 4 sparse fields; another count
        # is reported, not silently replaced
        if source == "flag":
            given = ["--dense-fields", "7", "--sparse-fields", "9"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"dense_fields": 7, "sparse_fields": 9}))
            given = ["--config", str(cfg_path)]
        code, out, err = run_cli(["train", "--synth", "default", *given, "--epochs", "0",
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert "dense_fields: --synth default has 4, got 7" in err
        assert "sparse_fields: --synth default has 4, got 9" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [("embed_dim", 2.5), ("mlp_widths", [4.0])])
    def test_non_integer_model_dimension_is_usage_error(self, tmp_path, capsys,
                                                        key, value):
        # not truncated to an integer: the run stops before training
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["train", "--synth", "default", "--config",
                                str(cfg_path), "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert f"{key}:" in err
        assert not (tmp_path / "run").exists()

    def test_mlp_widths_not_a_list_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mlp_widths": 5}))
        code, out, err = run_cli(["train", "--synth", "default", "--config",
                                  str(cfg_path), "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert "mlp_widths: expected a list of integers, got 5" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        ("lr", "fast"), ("lr", None), ("min_freq", None), ("valid_fraction", "x"),
        ("epochs", 0.5), ("batch_size", True), ("dtype", "float16")])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys,
                                                           key, value):
        # neither coerced nor let through: the run stops before training
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["train", "--synth", "default", "--config",
                                str(cfg_path), "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert f"{key}:" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_flags_override_config_file(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "train_data": str(synth_dir / "train.tsv"),
            "valid_data": str(synth_dir / "valid.tsv"),
            "dense_fields": 4, "sparse_fields": 4, "embed_dim": 4,
            "product_size": 4, "cross_depth": 2, "mlp_widths": [16],
            "epochs": 1, "batch_size": 256, "lr": 0.5, "seed": 3}))
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(["train", "--config", str(cfg_path),
                              "--lr", "0.01", "--out", str(out_dir)], capsys)
        assert code == 0
        resolved = json.loads((out_dir / "config.json").read_text())
        assert resolved["lr"] == 0.01

    def test_field_count_mismatch_is_data_error(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             "--out", str(tmp_path)], capsys)  # default 13/26 fields
        assert code == 3
        assert "fields" in err

    def test_valid_fraction_split(self, synth_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             "--valid-fraction", "0.25", *TRAIN_FLAGS, "--epochs", "1",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "final_auc" in kv(out)

    def test_one_class_held_out_tail_has_no_auc(self, synth_dir, tmp_path, capsys):
        # the last 10% of the lines, the held-out split, are all label 0
        lines = (synth_dir / "train.tsv").read_text().splitlines(keepends=True)
        tail = len(lines) // 10
        path = tmp_path / "train.tsv"
        path.write_text("".join(lines[:-tail] + ["0" + line[1:] for line in lines[-tail:]]))
        code, out, _ = run_cli(
            ["train", "--train-data", str(path), "--valid-fraction", "0.1", *TRAIN_FLAGS,
             "--epochs", "1", "--out", str(tmp_path / "run")], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["val_auc"] == pairs["final_auc"] == "unavailable"
        assert (pairs["final_n_pos"], pairs["final_n_neg"]) == ("0", str(tail))
        records = [json.loads(line) for line in
                   (tmp_path / "run" / "train_log.ndjson").read_text().splitlines()]
        assert [r["val_auc"] for r in records if "val_logloss" in r] == [None]

    def test_empty_held_out_tail_means_no_validation(self, synth_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             "--valid-fraction", "0", *TRAIN_FLAGS, "--epochs", "1",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert not [key for key in kv(out) if key.startswith(("final_", "val_"))]

    @pytest.mark.parametrize("flags, config, problem", [
        (["--train-data", "t.tsv", "--valid-fraction", "1.5"], None,
         "valid_fraction: must be a number in [0, 1), got 1.5"),
        ([], {"synth": "other"}, "synth: only 'default' is defined, got 'other'"),
    ], ids=["valid_fraction_past_one", "synth_not_default"])
    def test_bad_setting_value_is_usage_error(self, tmp_path, capsys, flags, config,
                                              problem):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        code, out, err = run_cli(["train", *flags, "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {problem}\n"
        assert not (tmp_path / "run").exists()

    def test_empty_training_file_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code, out, err = run_cli(["train", "--train-data", str(empty), *TRAIN_FLAGS,
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 3 and out == ""
        assert "training split is empty" in err

    def test_empty_valid_data_file_exits_3(self, synth_dir, tmp_path, capsys):
        # validation is not silently turned off
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code, out, err = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             "--valid-data", str(empty), *TRAIN_FLAGS, "--out", str(tmp_path / "run")],
            capsys)
        assert code == 3 and out == ""
        assert f"no instances in {empty}" in err

    def test_training_file_is_streamed(self, tmp_path):
        # the file is read twice in CHUNK_LINES chunks and never held whole:
        # over three chunks of Criteo-shaped lines the ingest peaks at about
        # twice the parsed arrays (the chunks' parts and their concatenation),
        # where a list of every raw line as well peaks at about 3.1 times
        rng = np.random.default_rng(0)
        n = 3 * data.CHUNK_LINES
        counts = rng.integers(0, 1000, (n, 13)).tolist()
        tokens = (rng.integers(1, 50, (n, 26)) * 2654435761 % 2 ** 32).tolist()
        path = tmp_path / "rows.tsv"
        path.write_text("".join(
            "\t".join([str(r % 2), *map(str, c), *(f"{t:08x}" for t in s)]) + "\n"
            for r, (c, s) in enumerate(zip(counts, tokens))))
        cfg, _ = cli._resolve_run_config(cli.build_parser().parse_args(
            ["train", "--train-data", str(path), "--out", str(tmp_path / "run")]))
        tracemalloc.start()
        try:
            splits = cli._load_training_data(cfg)[:2]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for ds in splits for a in (ds.dense, ds.sparse, ds.labels))
        assert peak <= 2.5 * arrays

    def test_bad_line_in_held_out_tail_names_its_file_line(self, synth_dir, tmp_path,
                                                           capsys):
        lines = (synth_dir / "train.tsv").read_text().splitlines(keepends=True)
        lines[-2] = "2" + lines[-2][1:]
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join(lines))
        code, _, err = run_cli(
            ["train", "--train-data", str(bad), "--valid-fraction", "0.25",
             *TRAIN_FLAGS, "--out", str(tmp_path / "run")], capsys)
        assert code == 3
        assert f"line {len(lines) - 1}: label must be 0 or 1, got '2'" in err

    def test_nan_loss_exits_4(self, synth_dir, tmp_path, capsys, monkeypatch):
        def explode(*a, **k):
            raise NumericError("training loss became non-finite at step 0")
        monkeypatch.setattr(cli.optim, "fit", explode)
        code, _, err = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             *TRAIN_FLAGS, "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "non-finite" in err

    @pytest.mark.parametrize("flags, forwards", [([], 2), (["--eval-every", "0"], 1),
                                                 (["--eval-every", "3"], 1),
                                                 (["--epochs", "0"], 1)])
    def test_final_metrics_forward_the_validation_set_once(self, synth_dir, tmp_path, capsys,
                                                           monkeypatch, flags, forwards):
        # the final_* lines come from fit's validation of the last epoch; only a
        # run whose last epoch did not validate, or that trained no epoch,
        # forwards the set for them
        calls, predict_dataset = [], metrics.predict_dataset

        def counted(*args, **kwargs):
            calls.append(1)
            return predict_dataset(*args, **kwargs)

        for module in (metrics, optim):
            monkeypatch.setattr(module, "predict_dataset", counted)
        code, out, _ = run_cli(["train", "--train-data", str(synth_dir / "train.tsv"),
                                "--valid-data", str(synth_dir / "valid.tsv"), *TRAIN_FLAGS,
                                *flags, "--out", str(tmp_path)], capsys)
        monkeypatch.undo()
        assert code == 0 and len(calls) == forwards
        model = load_checkpoint(tmp_path / "checkpoint.xcn")
        vocab = data.FieldVocab.from_json((tmp_path / "vocab.json").read_text())
        valid = data.load_tsv(synth_dir / "valid.tsv", vocab, 4, 4)
        report = dataclasses.asdict(
            metrics.evaluate(metrics.predict_dataset(model, valid), valid.labels))
        pairs = kv(out)
        assert {key: pairs[f"final_{key}"] for key in report} == \
            {key: repr(value) for key, value in report.items()}
        records = [json.loads(line) for line in
                   (tmp_path / "train_log.ndjson").read_text().splitlines()]
        validated = [r for r in records if "val_logloss" in r]
        assert len(validated) == (0 if flags else 2)
        if validated:  # the last epoch's validation gave the final_* lines
            assert {key: validated[-1][f"val_{key}"] for key in report} == report

    def test_interrupt_still_writes_checkpoint(self, synth_dir, tmp_path,
                                               capsys, monkeypatch):
        def interrupted(*a, **k):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli.optim, "fit", interrupted)
        code, out, _ = run_cli(
            ["train", "--train-data", str(synth_dir / "train.tsv"),
             *TRAIN_FLAGS, "--out", str(tmp_path)], capsys)
        assert code == 130
        assert (tmp_path / "checkpoint.xcn").exists()
        assert kv(out)["interrupted"] == "true"


def criteo_shaped_lines(n):
    """n Criteo-shaped lines (13 dense fields, 26 sparse) whose tokens
    include empty, non-ASCII and longer-than-8-byte ones; in the even
    fields the long tokens are rare."""
    lines = []
    for r in range(n):
        dense = [str((r * (i + 3)) % 17) if (r + i) % 5 else "" for i in range(13)]
        sparse = [["", f"{(r * 7 + f) % 6:08x}", f"long-token-{f}-{r % (3 if f % 2 else 400)}",
                   "é" * (f % 4 + 1), f"{r % 9}"][(r * 3 + f) % 5] for f in range(26)]
        lines.append("\t".join([str(r * 5 % 7 % 2), *dense, *sparse]) + "\n")
    return lines


class TestVocabJsonBytes:
    """vocab.json keeps the bytes that train wrote when the vocab was held
    as {token: id} dicts."""

    def test_synth_run(self, synth_run):
        assert (synth_run / "vocab.json").read_text() == \
            '{"fields": [' + ", ".join(['{"c1": 1, "c2": 2, "c3": 3}'] * 4) + ']}\n'

    def test_criteo_shaped_file_run(self, tmp_path, capsys):
        path = tmp_path / "rows.tsv"
        path.write_text("".join(criteo_shaped_lines(600)), encoding="utf-8")
        code, _, _ = run_cli(["train", "--train-data", str(path), "--epochs", "0",
                              "--out", str(tmp_path / "run")], capsys)
        assert code == 0
        text = (tmp_path / "run" / "vocab.json").read_bytes()
        assert (len(text), hashlib.sha256(text).hexdigest()) == \
            (5901, "5e85f594239eb5c8c03a0a5322fcf07b8abf8c157a38a707a5fb234327ad5222")
        assert json.loads(text)["fields"][1] == {
            "éé": 1, "long-token-1-0": 2, "long-token-1-1": 3, "long-token-1-2": 4,
            **{f"{i:08x}": 5 + i for i in range(6)}, **{str(i): 11 + i for i in range(9)}}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trains_the_synth_run_model(monkeypatch):
    # perfbench's synth-train workload writes its model and optimizer
    # settings out by hand; they must stay those of `train --synth default`
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    cfg, train_cfg = cli._resolve_run_config(cli.build_parser().parse_args(
        ["train", "--synth", "default", "--out", "d"]))
    sizes = (4, 5, 6, 7)
    workload = child.WORKLOADS["synth-train"]
    assert workload.model_config(sizes) == cli._model_config(cfg, sizes)[0]
    assert (workload.batch_size, child.LR) == (train_cfg.batch_size, train_cfg.lr)


class TestEval:
    def test_reproduces_final_training_metrics_exactly(self, synth_dir,
                                                       trained_dir, capsys):
        records = [json.loads(line) for line in
                   (trained_dir / "train_log.ndjson").read_text().splitlines()]
        final = [r for r in records if "val_auc" in r][-1]
        code, out, _ = run_cli(
            ["eval", "--checkpoint", str(trained_dir / "checkpoint.xcn"),
             "--data", str(synth_dir / "valid.tsv")], capsys)
        assert code == 0
        pairs = kv(out)
        assert float(pairs["auc"]) == final["val_auc"]
        assert float(pairs["logloss"]) == final["val_logloss"]

    def test_corrupted_checkpoint(self, trained_dir, tmp_path, capsys):
        # a truncated and an over-long payload both exit 3
        blob = (trained_dir / "checkpoint.xcn").read_bytes()
        bad = tmp_path / "bad.xcn"
        (tmp_path / "vocab.json").write_text(
            (trained_dir / "vocab.json").read_text())
        for payload in (blob[: len(blob) // 2], blob + bytes(8)):
            bad.write_bytes(payload)
            code, _, err = run_cli(["eval", "--checkpoint", str(bad),
                                    "--data", "unused.tsv"], capsys)
            assert code == 3
            assert "bytes" in err or "checkpoint" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("name, value", [("embed.field1", "nan"), ("concat.w", "inf")])
    def test_non_finite_checkpoint_value_exits_3(self, synth_dir, trained_dir, tmp_path,
                                                capsys, command, name, value):
        # the same payload, with one value of one entry overwritten
        path = trained_dir / "checkpoint.xcn"
        header, _, payload = path.read_bytes().partition(b"\n")
        registry = load_checkpoint(path).registry
        names = registry.names()  # the payload's order
        stored = registry.values.dtype.newbyteorder("<")
        at = stored.itemsize * sum(registry[n].values.size for n in names[:names.index(name)])
        bad = tmp_path / "checkpoint.xcn"
        bad.write_bytes(header + b"\n" + payload[:at] + np.array(float(value), stored).tobytes()
                        + payload[at + stored.itemsize:])
        (tmp_path / "vocab.json").write_text((trained_dir / "vocab.json").read_text())
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        code, stdout, err = run_cli([command, "--checkpoint", str(bad),
                                     "--data", str(synth_dir / "valid.tsv"), *extra], capsys)
        assert code == 3
        assert f"parameter {name} holds a non-finite value" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_overflowing_checkpoint_exits_4(self, synth_dir, synth_run, tmp_path, capsys,
                                            command):
        # finite parameters whose forward pass overflows to NaN predictions
        # (1e30 is finite in the run's float32)
        model = load_checkpoint(synth_run / "checkpoint.xcn")
        model.registry["cross.w0"].values[...] = 1e30
        save_checkpoint(model, tmp_path / "checkpoint.xcn")
        (tmp_path / "vocab.json").write_text((synth_run / "vocab.json").read_text())
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        with warnings.catch_warnings():  # numpy's overflow warnings are not printed
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run_cli([command, "--checkpoint", str(tmp_path / "checkpoint.xcn"),
                                         "--data", str(synth_dir / "valid.tsv"), *extra], capsys)
        assert code == 4
        assert "the prediction for row 1 is nan, not finite" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_empty_data_file_exits_3(self, trained_dir, tmp_path, capsys, command):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        code, stdout, err = run_cli([command, "--checkpoint", str(trained_dir / "checkpoint.xcn"),
                                     "--data", str(empty), *extra], capsys)
        assert code == 3
        assert f"no instances in {empty}" in err
        assert stdout == "" and not out.exists()

    def test_single_class_data(self, trained_dir, tmp_path, capsys):
        rows = []
        for i in range(5):
            rows.append("1\t0.5\t-0.25\t1.0\t0.0\tc1\tc2\tc3\tc0")
        single = tmp_path / "single.tsv"
        single.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            ["eval", "--checkpoint", str(trained_dir / "checkpoint.xcn"),
             "--data", str(single)], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["auc"] == "unavailable"
        assert float(pairs["logloss"]) > 0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("vocab, message", [
        ({"fields": [{"c1": 1}] * 3}, "vocab has 3 fields, the data 4"),
        ({"fields": {"a": 1}}, "vocab must be"),
        ({"fields": [{f"c{i}": i for i in range(1, 9)}] * 4}, "more than the model"),
    ], ids=["three_fields", "fields_not_a_list", "ids_past_the_tables"])
    def test_vocab_of_the_wrong_shape_exits_3(self, synth_dir, trained_dir, tmp_path,
                                              capsys, command, vocab, message):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(vocab))
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        code, _, err = run_cli(
            [command, "--checkpoint", str(trained_dir / "checkpoint.xcn"),
             "--data", str(synth_dir / "valid.tsv"), "--vocab", str(path), *extra],
            capsys)
        assert code == 3
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_vocab_names_flag(self, trained_dir, tmp_path, capsys):
        lone = tmp_path / "checkpoint.xcn"
        lone.write_bytes((trained_dir / "checkpoint.xcn").read_bytes())
        code, _, err = run_cli(["eval", "--checkpoint", str(lone),
                                "--data", "unused.tsv"], capsys)
        assert code == 3
        assert str(tmp_path / "vocab.json") in err and "--vocab" in err


class TestPredict:
    def test_order_range_and_determinism(self, synth_dir, trained_dir,
                                         tmp_path, capsys):
        out1 = tmp_path / "p1.txt"
        out2 = tmp_path / "p2.txt"
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["predict", "--checkpoint", str(trained_dir / "checkpoint.xcn"),
                 "--data", str(synth_dir / "valid.tsv"), "--out", str(out)],
                capsys)
            assert code == 0
        preds = [float(x) for x in out1.read_text().splitlines()]
        assert len(preds) == 400
        assert all(0.0 < p < 1.0 for p in preds)
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_in_a_missing_directory_exits_3(self, synth_dir, trained_dir, tmp_path,
                                                capsys):
        out = tmp_path / "missing" / "p.txt"
        code, stdout, err = run_cli(
            ["predict", "--checkpoint", str(trained_dir / "checkpoint.xcn"),
             "--data", str(synth_dir / "valid.tsv"), "--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("i/o error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_dense_token_exits_3(self, trained_dir, tmp_path,
                                            capsys, token):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"1\t0.5\t{token}\t1.0\t0.0\tc1\tc2\tc3\tc0\n")
        out = tmp_path / "p.txt"
        code, _, err = run_cli(
            ["predict", "--checkpoint", str(trained_dir / "checkpoint.xcn"),
             "--data", str(bad), "--out", str(out)], capsys)
        assert code == 3
        assert f"line 1: dense field 1: not finite: '{token}'" in err
        assert not out.exists()


class TestStreamedScoring:
    """eval and predict parse and forward --data one chunk at a time, and
    print or write nothing unless every chunk scores."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data, "CHUNK_LINES", 4)

    @staticmethod
    def score(command, run_dir, path, tmp_path, capsys):
        out = tmp_path / "p.txt"
        extra = ["--out", str(out)] if command == "predict" else []
        code, stdout, err = run_cli([command, "--checkpoint", str(run_dir / "checkpoint.xcn"),
                                     "--data", str(path), *extra], capsys)
        return code, stdout, err, out.exists()

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_non_finite_row_past_the_first_chunk_names_its_file_row(
            self, synth_run, tmp_path, capsys, command):
        model = load_checkpoint(synth_run / "checkpoint.xcn")
        model.registry["embed.field0"].values[1] = 1e30  # the row of token c1
        save_checkpoint(model, tmp_path / "checkpoint.xcn")
        (tmp_path / "vocab.json").write_text((synth_run / "vocab.json").read_text())
        rows = tmp_path / "rows.tsv"
        rows.write_text("".join(f"{r % 2}\t0.5\t-0.25\t1.0\t0.0\tc{1 if r == 7 else 2}"
                                "\tc2\tc3\tc0\n" for r in range(1, 11)))
        code, stdout, err, written = self.score(command, tmp_path, rows, tmp_path, capsys)
        assert code == 4
        assert "the prediction for row 7 is" in err
        assert stdout == "" and not written

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_bad_label_on_the_last_line_of_the_third_chunk(self, synth_dir, trained_dir,
                                                           tmp_path, capsys, command):
        lines = (synth_dir / "valid.tsv").read_text().splitlines(keepends=True)[:11]
        lines[-1] = "2" + lines[-1][1:]
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join(lines))
        code, stdout, err, written = self.score(command, trained_dir, bad, tmp_path, capsys)
        assert code == 3
        assert "line 11: label must be 0 or 1, got '2'" in err
        assert stdout == "" and not written

    def test_peak_memory_grows_with_the_kept_scores_only(self, synth_run, tmp_path, capsys):
        # parsed rows are dropped chunk by chunk: from 20k to 80k lines the
        # peak grows by what eval ranks (the AUC's sort dominates) and by the
        # predictions predict writes, not by the parsed file (113 B a line)
        spec = dataclasses.replace(data.DEFAULT_SYNTH_SPEC, n_train=80_000, n_valid=1)
        data.synth_generate(spec).write_tsv(tmp_path / "all.tsv", tmp_path / "unused.tsv")
        lines = (tmp_path / "all.tsv").read_text().splitlines(keepends=True)
        for n in (20_000, 80_000):
            (tmp_path / f"{n}.tsv").write_text("".join(lines[:n]))
        del lines
        for command, bound in (("eval", 48), ("predict", 24)):
            peaks = []
            for n in (20_000, 80_000):
                tracemalloc.start()
                try:
                    code, *_ = self.score(command, synth_run, tmp_path / f"{n}.tsv", tmp_path,
                                          capsys)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0
            assert (peaks[1] - peaks[0]) / 60_000 <= bound, (command, peaks)


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    @pytest.mark.parametrize("fault", ["truncated_gzip", "non_utf8_byte"])
    def test_exits_3_naming_the_file(self, synth_dir, trained_dir, tmp_path, capsys,
                                     command, fault):
        text = (synth_dir / "valid.tsv").read_bytes()
        if fault == "truncated_gzip":
            path = tmp_path / "data.tsv.gz"
            packed = gzip.compress(text)
            path.write_bytes(packed[:len(packed) // 2])
        else:
            path = tmp_path / "data.tsv"
            path.write_bytes(text[:1000] + b"\xe9" + text[1000:])
        if command == "train":
            argv = ["train", "--train-data", str(path), *TRAIN_FLAGS,
                    "--out", str(tmp_path / "run")]
        else:
            argv = [command, "--checkpoint", str(trained_dir / "checkpoint.xcn"),
                    "--data", str(path)]
            argv += ["--out", str(tmp_path / "p.txt")] if command == "predict" else []
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert str(path) in err and "Traceback" not in err


class TestGradcheck:
    @pytest.mark.parametrize("flag, value", [
        ("--cross-depth", "0"), ("--dense-fields", "0"), ("--instances", "0"), ("--eps", "0"),
        ("--eps", "inf"), ("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "0"),
        ("--vocab-size", "0"), ("--mlp-widths", "4,x"),
    ], ids=["--cross-depth", "--dense-fields", "--instances", "--eps", "--eps-inf",
            "--tolerance-nan", "--tolerance--1", "--tolerance-0", "--vocab-size",
            "--mlp-widths-text"])
    def test_zero_is_usage_error(self, capsys, flag, value):
        # an explicit 0 is checked, not replaced by the default; eps and
        # tolerance must also be finite; the message names the flag given
        code, out, err = run_cli(["gradcheck", flag, value], capsys)
        assert code == 2
        assert f"{flag[2:].replace('-', '_')}:" in err
        assert "vocab_sizes" not in err
        assert "gradcheck_pass" not in out

    def test_default_config_passes(self, capsys):
        code, out, _ = run_cli(["gradcheck", "--seed", "0"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["gradcheck_pass"] == "true"
        groups = [line.split("group=")[1].split()[0]
                  for line in out.splitlines() if line.startswith("gradcheck ")]
        assert len(groups) == len(set(groups))  # every group exactly once
        assert "cross.w0" in groups and "mlp.out_b" in groups

    def test_no_hidden_layers(self, capsys):
        # 'none' leaves the head its output layer alone
        code, out, _ = run_cli(["gradcheck", "--mlp-widths", "none"], capsys)
        assert code == 0
        assert kv(out)["gradcheck_pass"] == "true"
        assert "group=mlp.out_w " in out and "group=mlp.w0 " not in out

    def test_corrupt_negative_control(self, capsys):
        code, out, _ = run_cli(["gradcheck", "--seed", "0", "--corrupt"], capsys)
        assert code == 1
        assert kv(out)["gradcheck_pass"] == "false"

    def test_coordinates_at_rounding_level_do_not_fail(self, capsys):
        # this point's mlp.w0 holds a gradient of -9.8e-9 whose central
        # difference is off by 6.7e-12, rounding: under the 4.4e-11 the
        # check forgives, but 6.8e-4 of the coordinate
        flags = ["gradcheck", "--mlp-widths", "16,8", "--instances", "6", "--seed", "4"]
        code, out, _ = run_cli(flags, capsys)
        assert code == 0
        assert kv(out)["gradcheck_pass"] == "true"
        code, out, _ = run_cli(flags + ["--corrupt"], capsys)
        assert code == 1
        assert kv(out)["gradcheck_pass"] == "false"


class TestInspect:
    def test_param_counts_and_balance(self, tmp_path, capsys):
        config = ModelConfig(dense_fields=13, sparse_fields=26,
                             vocab_sizes=(3,) * 26, embed_dim=4,
                             product_size=100, cross_depth=4,
                             mlp_widths=(8,), seed=0)
        model = XCrossNetModel.init(config)
        path = tmp_path / "c.xcn"
        save_checkpoint(model, path)
        code, out, _ = run_cli(["inspect", "--checkpoint", str(path)], capsys)
        assert code == 0
        pairs = kv(out)
        counts = model.num_parameters()
        assert pairs["config.dtype"] == "float32"
        assert int(pairs["params.cross"]) == counts["cross"] == 104
        assert int(pairs["params.total"]) == counts["total"]
        assert float(pairs["balance_index.cross_only"]) == 0.52
        assert float(pairs["balance_index.include_input"]) == 0.65

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(learning_rate=0.1),  # unknown key
        lambda c: c.pop("dense_fields"),         # missing key
        lambda c: c.update(embed_dim=-3),        # bad dimension
        lambda c: c.update(dense_fields=2.5),    # non-integer dimension
        lambda c: c.update(cross_depth=True),    # bool dimension
        lambda c: c.update(vocab_sizes=[3, 2.5]),
        lambda c: c.update(mlp_widths=[4.0]),
    ], ids=["unknown_key", "missing_dense_fields", "negative_embed_dim",
            "float_dense_fields", "bool_cross_depth", "float_vocab_size",
            "float_mlp_width"])
    def test_malformed_config_header_exits_3(self, tmp_path, capsys, edit):
        model = XCrossNetModel.init(ModelConfig(
            dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3), embed_dim=2,
            product_size=2, cross_depth=1, mlp_widths=(4,)))
        path = tmp_path / "c.xcn"
        save_checkpoint(model, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        edit(header["config"])
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        code, _, err = run_cli(["inspect", "--checkpoint", str(path)], capsys)
        assert code == 3
        assert "checkpoint config" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("config"), "checkpoint header has no config object"),
        (lambda h: h["registry"].reverse(), "registry ordering does not match config"),
    ], ids=["no_config", "registry_mismatch"])
    def test_malformed_header_exits_3(self, tmp_path, capsys, edit, message):
        model = XCrossNetModel.init(ModelConfig(
            dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3), embed_dim=2,
            product_size=2, cross_depth=1, mlp_widths=(4,)))
        path = tmp_path / "c.xcn"
        save_checkpoint(model, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        code, _, err = run_cli(["inspect", "--checkpoint", str(path)], capsys)
        assert code == 3
        assert message in err

    @pytest.mark.parametrize("command", ["inspect", "eval", "predict"])
    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["vocab_sizes"].__setitem__(0, 10 ** 12),
         "parameter blob has 468 bytes, expected 8000000000444"),
        (lambda c: c.update(cross_depth=10 ** 4),
         "checkpoint registry ordering does not match config"),
    ], ids=["huge_vocab", "deep_cross"])
    def test_header_sizes_are_checked_before_any_allocation(self, tmp_path, capsys, command,
                                                             edit, message):
        # a header naming an 8 TB float32 table, or 2 * 10^4 cross entries, costs nothing
        model = XCrossNetModel.init(ModelConfig(
            dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3), embed_dim=2,
            product_size=2, cross_depth=1, mlp_widths=(4,)))
        path = tmp_path / "c.xcn"
        save_checkpoint(model, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        edit(header["config"])
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        extra = {"inspect": [], "eval": ["--data", "unused.tsv"],
                 "predict": ["--data", "unused.tsv", "--out", str(tmp_path / "p.txt")]}
        tracemalloc.start()
        try:
            code, _, err = run_cli([command, "--checkpoint", str(path), *extra[command]],
                                   capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == f"error: {message}\n"
        assert peak < 2 ** 20

    @pytest.mark.parametrize("command", ["inspect", "eval"])
    @pytest.mark.parametrize("version, dtype, message", [
        (2, "float16", "invalid checkpoint config: dtype: must be one of float32, float64, "
                       "got 'float16'"),
        (2, None, "malformed checkpoint config: a version-2 config needs a dtype"),
        (1, "float64", "malformed checkpoint config: a version-1 config has no dtype"),
    ], ids=["unknown_dtype", "version_2_without_dtype", "version_1_with_dtype"])
    def test_bad_dtype_header_exits_3_before_any_allocation(self, tmp_path, capsys, command,
                                                            version, dtype, message):
        # the header also names a 10^12-row table, which no check may allocate
        model = XCrossNetModel.init(ModelConfig(
            dense_fields=2, sparse_fields=2, vocab_sizes=(3, 3), embed_dim=2,
            product_size=2, cross_depth=1, mlp_widths=(4,)))
        path = tmp_path / "c.xcn"
        save_checkpoint(model, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header["version"] = version
        header["config"]["vocab_sizes"][0] = 10 ** 12
        header["config"].pop("dtype")
        if dtype is not None:
            header["config"]["dtype"] = dtype
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        extra = ["--data", "unused.tsv"] if command == "eval" else []
        tracemalloc.start()
        try:
            code, _, err = run_cli([command, "--checkpoint", str(path), *extra], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == f"error: {message}\n"
        assert peak < 2 ** 20

    def test_unknown_checkpoint_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.xcn"
        bad.write_bytes(b'{"format": "something-else", "version": 9}\n')
        code, _, err = run_cli(["inspect", "--checkpoint", str(bad)], capsys)
        assert code == 3
        assert "format" in err


class TestThreadCap:
    def test_env_applied(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("XCN_THREADS", "2")
        cli._configure_threads()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("XCN_THREADS", "0")
        cli._configure_threads()
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("value", ["lots", "-3"])
    def test_garbage_ignored(self, monkeypatch, value):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("XCN_THREADS", value)
        cli._configure_threads()
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestEntryPoint:
    def test_a_bare_package_error_exits_1(self, monkeypatch, capsys):
        # an XCrossNetError of no subclass that main maps to its own code
        def fail(args):
            raise XCrossNetError("something went wrong")

        monkeypatch.setattr(cli, "cmd_inspect", fail)
        code, out, err = run_cli(["inspect", "--checkpoint", "unused.xcn"], capsys)
        assert (code, out, err) == (cli.EXIT_CHECK_FAILED, "", "error: something went wrong\n")
        assert cli.EXIT_CHECK_FAILED == 1

    def test_the_module_runs_as_a_script(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "xcrossnet.cli", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: xcrossnet ")
