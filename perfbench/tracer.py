"""In-memory span tracer that wraps package functions from outside.

A wrapped function records one span per call: its name, start and end
(perf_counter seconds), the span that was open when it was called, and the
run id of the benchmark phase it ran in. A count-only function records just
a call count per run id; it is for calls so short that timing them would
mostly measure the wrapper.

Self time is a span's duration minus the durations of its direct children.
The wrapper's own cost for a child call lands in the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.count_only: list[bool] = []
        self.present: list[bool] = []
        self.run = -1
        self._fn = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._counts: Counter = Counter()

    def wrap(self, owner, attr: str, name: str, count_only: bool = False) -> None:
        """Replace owner.attr with a recording wrapper of any signature.

        A missing owner or attribute is registered as absent, so the
        function still reports zero calls.
        """
        idx = len(self.names)
        self.names.append(name)
        self.count_only.append(count_only)
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.present.append(False)
            return
        self.present.append(True)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self._wrapper(raw.__func__, idx, count_only)))
        else:
            setattr(owner, attr, self._wrapper(raw, idx, count_only))

    def _wrapper(self, fn, idx: int, count_only: bool):
        if count_only:
            counts = self._counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[idx, self.run] += 1
                return fn(*args, **kwargs)
            return counted

        stack, fns, parents, runs = self._stack, self._fn, self._parent, self._run
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot = len(fns)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run)
            ends.append(0.0)
            stack.append(slot)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[slot] = perf_counter()
                stack.pop()
        return timed

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self._fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self, run_instances: list[int]) -> dict[str, dict]:
        """Per function: calls, self_s, self_us_per_inst, calls_per_inst.

        The per-instance figures divide by the instance count of every run
        (phase) in which the function was called at least once.
        """
        s = self.spans()
        duration = s["end"] - s["start"]
        child = s["parent"] >= 0
        self_time = duration - np.bincount(
            s["parent"][child], weights=duration[child], minlength=len(duration))
        out = {}
        for idx, name in enumerate(self.names):
            if self.count_only[idx]:
                per_run = {r: c for (i, r), c in self._counts.items() if i == idx}
                calls = sum(per_run.values())
                self_s = None
            else:
                mask = s["fn"] == idx
                per_run = dict(zip(*np.unique(s["run"][mask], return_counts=True)))
                calls = int(mask.sum())
                self_s = float(self_time[mask].sum())
            inst = sum(run_instances[r] for r in per_run if r >= 0)
            stats = {"calls": calls,
                     "calls_per_inst": calls / inst if inst else 0.0}
            if self_s is not None:
                stats["self_s"] = self_s
                stats["self_us_per_inst"] = self_s * 1e6 / inst if inst else 0.0
            out[name] = {"present": self.present[idx], **stats}
        return out


# Functions timed in the traced run, as (module, owner, attribute). dot is
# counted, not timed: it runs a dozen times per instance for microseconds.
TRACED = [
    ("layers", None, "cross_forward"), ("layers", None, "cross_backward"),
    ("layers", None, "embed_forward"), ("layers", None, "embed_backward"),
    ("layers", None, "product_forward"), ("layers", None, "product_backward"),
    ("layers", None, "concat_cross_forward"), ("layers", None, "concat_cross_backward"),
    ("layers", None, "mlp_forward"), ("layers", None, "mlp_backward_logit"),
    ("model", "XCrossNetModel", "init"), ("model", "XCrossNetModel", "forward"),
    ("model", "XCrossNetModel", "backward"),
    ("optim", None, "batch_loss_and_grad"), ("optim", None, "adam_step"),
    ("metrics", None, "predict_dataset"),
    ("data", None, "build_vocab"), ("data", None, "load_tsv"),
    ("data", None, "parse_criteo_line"), ("data", "Dataset", "subset"),
]
COUNTED = [("linalg", None, "dot")]


def traced_name(module: str, owner: str | None, attr: str) -> str:
    return ".".join(p for p in (module, owner, attr) if p)


def install_tracer() -> Tracer:
    """A tracer wrapping every function in TRACED and COUNTED."""
    tracer = Tracer()
    for entries, count_only in ((TRACED, False), (COUNTED, True)):
        for module, owner, attr in entries:
            try:
                target = importlib.import_module(f"xcrossnet.{module}")
            except ModuleNotFoundError:
                target = None
            if target is not None and owner is not None:
                target = getattr(target, owner, None)
            tracer.wrap(target, attr, traced_name(module, owner, attr), count_only)
    return tracer
