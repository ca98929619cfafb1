"""Benchmark for xcrossnet: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload synth-train --seed 1 --seconds 50 --trace 0

Each workload runs in fresh child processes (child.py), one at a time, with
the BLAS pools capped at XCN_THREADS (default 1, never more than the cores
this process may use). With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs one pass untraced and the same pass traced, and prints
the per-function metrics from the trace. The line before the last holds the
details: machine block, input properties, every sample and every check.
The last line is the result: {"correct", "attempted", "failed", "metrics"}.

See README.md in this directory for the workloads and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

DEADLINE_S = 170.0
# Set-up-only processes started after the run process, each one more
# set-up sample; fewer where one set-up takes 2 s and allocates 0.4 GB.
SETUP_CHILDREN = {"synth-train": 6, "criteo-100k-train": 2}

# The metric names and units are those BENCHMARK.json lists.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class RunFailed(RuntimeError):
    pass


def blas_threads() -> int:
    cores = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("XCN_THREADS", "1"))
    except ValueError:
        wanted = 1
    return max(1, min(wanted, cores))


def with_units(values: dict, kind: str) -> dict:
    """The metrics SPEC lists under kind ("end_to_end" or "per_layer"),
    with their units, from values keyed by metric name."""
    listed = {m["name"] for m in SPEC[kind]}
    if set(values) != listed:
        raise RunFailed(f"measured metrics differ from BENCHMARK.json's {kind}: "
                        f"{sorted(set(values) ^ listed)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("XCN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], env: dict, out: Path, deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; returns its result and its peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "child.py"), *argv, "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RunFailed(f"{' '.join(argv)}: still running at the deadline")
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(argv)}: exit code {proc.returncode}")
    with open(out) as f:
        result = json.load(f)
    if "package_file" in result.get("machine", {}) and \
            not Path(result["machine"]["package_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RunFailed(f"imported xcrossnet from {result['machine']['package_file']}, "
                        f"not from {ROOT / 'src'}")
    return result, usage.ru_maxrss / 1024.0


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 2 or Path(fields[0]).resolve() != ROOT:
        return None
    return fields[1]


def machine_block(child: dict, seed: int) -> dict:
    return {
        "XCN_THREADS": child["XCN_THREADS"],
        "OPENBLAS_NUM_THREADS": child["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": child["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def count_checks(checks: dict) -> tuple[int, int]:
    results = [ok for oks in checks.values() for ok in oks]
    return len(results), results.count(False)


def untraced(args, env: dict, work: Path, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(work)] + (["--smoke"] if args.smoke else [])
    run, rss_mb = run_child(["--mode", "run", *common, "--seconds", str(args.seconds)],
                            env, work / "run.json", deadline)
    setups = [run["setup_s"]]
    extra = 1 if args.smoke else SETUP_CHILDREN[args.workload]
    for i in range(extra):
        setup, _ = run_child(["--mode", "setup", *common,
                              "--vocab-sizes", json.dumps(run["vocab_sizes"])],
                             env, work / f"setup{i}.json", deadline)
        setups.append(setup["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "ingest_lines_per_s": run["ingest_lines_per_s"],
        "train_inst_per_s": run["train_inst_per_s"],
        "predict_inst_per_s": run["predict_inst_per_s"],
        "val_logloss": run["val_logloss"],
        "val_auc": run["val_auc"],
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "machine": machine_block(run["machine"], args.seed),
        "inputs": run["inputs"],
        "setup_s_samples": setups,
        "phases": run["phases"],
        "rates": run["rates"],
        "base_rate_entropy": run["base_rate_entropy"],
        "digest": run["digest"],
        "checks": run["checks"],
    }
    return with_units(values, "end_to_end"), detail


def traced(args, env: dict, work: Path, deadline: float) -> tuple[dict, dict]:
    """One untraced pass, then the same pass traced."""
    common = ["--mode", "run", "--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(work)] + (["--smoke"] if args.smoke else [])
    base, _ = run_child(common, env, work / "untraced.json", deadline)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
    run, _ = run_child([*common, "--trace", "1", "--trace-out", str(trace_file)],
                       env, work / "traced.json", deadline)
    checks = {"traced_digest_equals_untraced": [run["digest"] == base["digest"]]}
    values = {f"{name}.{stat}": v for name, stats in run["per_layer"].items()
              for stat, v in stats.items() if stat != "present"}
    values["tracing_overhead"] = run["wall_s"] / base["wall_s"]
    detail = {
        "machine": machine_block(run["machine"], args.seed),
        "inputs": run["inputs"],
        "absent": [n for n, s in run["per_layer"].items() if not s["present"]],
        "phases": run["phases"],
        "untraced_phases": base["phases"],
        "trace_file": str(trace_file.relative_to(ROOT)),
        "checks": {**{f"untraced.{k}": v for k, v in base["checks"].items()},
                   **{f"traced.{k}": v for k, v in run["checks"].items()},
                   **checks},
    }
    return with_units(values, "per_layer"), detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUP_CHILDREN), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and one sample each, for the smoke test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # so that a terminated benchmark still stops its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "xcrossnet" / "__init__.py").is_file():
        print(f"perfbench: no xcrossnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env(blas_threads())
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, detail = (traced if args.trace else untraced)(args, env, work, deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = count_checks(detail["checks"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "error_rate": failed / attempted, **detail}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
