"""Boundary spans for the traced run, recorded from outside the program.

``TARGETS`` declares every layer boundary as ``(span name, module,
class or None, attribute)``.  :class:`LayerTrace` swaps each target for a
timing wrapper that records ``(name, start, end, parent)`` in memory and
restores the originals on exit; nothing under ``src/`` changes.  A
function that another module imported by name (``from x import f``) is
listed once per importing namespace, since that is the binding callers
resolve.  Work counts are taken at the same boundaries from the call's
public arguments and return value (``COUNTERS``).

Only the installing thread of the installing process records: forked
workers inherit the wrappers but pass straight through, and worker-side
time comes from the public ``LocalResult`` fields ``drain`` returns.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import threading
import time
from typing import Any, Callable, Mapping

from benchmarks.e2e.timing import Span, inclusive_by_name, self_by_name

__all__ = [
    "COUNTERS",
    "LayerTrace",
    "PER_LAYER",
    "ROOT",
    "TARGETS",
    "layer_metrics",
    "target_holder",
]

ROOT = "pass"

TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("core.sstd.discover", "repro.core.sstd", "SSTD", "discover"),
    ("core.sstd.group", "repro.core.sstd", "SSTD", "group_reports"),
    ("core.acs.acs_sequence", "repro.core.sstd", None, "acs_sequence"),
    ("core.acs.acs_sequence", "repro.system.jobs", None, "acs_sequence"),
    ("core.sstd.batch_fit_decode", "repro.core.sstd", None, "batch_fit_decode"),
    ("core.sstd.batch_fit_decode", "repro.system.jobs", None, "batch_fit_decode"),
    ("hmm.batch.fit", "repro.hmm.batch", "BatchGaussianHMM", "fit"),
    ("hmm.batch.emission", "repro.hmm.batch", "BatchGaussianHMM", "emission_probabilities"),
    ("hmm.batch.forward", "repro.hmm.batch", "BatchGaussianHMM", "forward"),
    ("hmm.batch.backward", "repro.hmm.batch", "BatchGaussianHMM", "backward"),
    ("hmm.batch.viterbi", "repro.hmm.batch", "BatchGaussianHMM", "viterbi"),
    ("core.sstd.push", "repro.core.sstd", "StreamingSSTD", "push"),
    ("core.sstd.tick", "repro.core.sstd", "StreamingSSTD", "tick"),
    ("core.sstd.retrain", "repro.core.sstd", "ClaimTruthModel", "fit_decode"),
    ("core.acs.window_push", "repro.core.acs", "SlidingWindowACS", "push"),
    ("core.acs.window_value", "repro.core.acs", "SlidingWindowACS", "value_at"),
    ("system.sstd_system.run_intervals", "repro.system.sstd_system", "DistributedSSTD", "run_intervals"),
    ("system.jobs.build_stack", "repro.system.sstd_system", None, "build_claim_stack"),
    ("system.jobs.task_spec", "repro.system.sstd_system", None, "shm_shard_task_spec"),
    ("system.jobs.expand", "repro.system.sstd_system", None, "expand_shard_result"),
    ("system.shm.publish", "repro.system.jobs", "ClaimStack", "publish"),
    ("system.shm.unlink", "repro.system.shm", "SegmentOwner", "close_and_unlink"),
    ("workqueue.spawn", "repro.workqueue.process", "ProcessWorkQueue", "__init__"),
    ("workqueue.submit", "repro.workqueue.process", "ProcessWorkQueue", "submit"),
    ("workqueue.drain", "repro.workqueue.process", "ProcessWorkQueue", "drain"),
    ("workqueue.shutdown", "repro.workqueue.process", "ProcessWorkQueue", "shutdown"),
)  # fmt: skip

Counts = collections.Counter
#: ``counter(counts, args, kwargs, result, duration)`` per span name.
Counter = Callable[[Counts, tuple, Mapping[str, Any], Any, float], None]


def _count_acs(counts, args, kwargs, result, duration) -> None:
    counts["core.acs.reports"] += len(args[0])
    counts["core.acs.grid_points"] += len(result[0])


def _count_batch_fit_decode(counts, args, kwargs, result, duration) -> None:
    for decoded in result:
        key = "claims_hmm" if decoded.used_hmm else "claims_fallback"
        counts[f"core.sstd.{key}"] += 1


def _count_fit(counts, args, kwargs, result, duration) -> None:
    observations = args[1]
    lengths = args[2] if len(args) > 2 else kwargs.get("lengths")
    if lengths is None:
        lengths = [observations.shape[1]] * len(result)
    for fit, length in zip(result, lengths):
        counts["hmm.batch.em_iterations"] += fit.iterations
        counts["hmm.batch.em_cells"] += fit.iterations * int(length)


def _count_discover(counts, args, kwargs, result, duration) -> None:
    counts["core.sstd.estimates"] += len(result)


def _count_run_intervals(counts, args, kwargs, result, duration) -> None:
    counts["core.sstd.estimates"] += len(result.estimates)
    counts["system.sstd_system.intervals"] += len(result.tracker.records)


def _count_publish(counts, args, kwargs, result, duration) -> None:
    counts["system.shm.bytes_published"] += result.nbytes


def _count_drain(counts, args, kwargs, result, duration) -> None:
    """Worker-side numbers from the ``LocalResult`` list one drain returns."""
    busy_by_worker: dict[str, float] = collections.defaultdict(float)
    for done in result:
        busy_by_worker[done.worker_name] += done.wall_time
        counts["workqueue.tasks"] += 1
        counts["workqueue.tasks_failed"] += 0 if done.ok else 1
        counts["workqueue.payload_bytes"] += done.payload_bytes or 0
        counts["workqueue.result_bytes"] += done.result_bytes or 0
    if not result:
        return
    shard_busy = [done.wall_time for done in result]
    counts["workqueue.task_busy_s"] += sum(shard_busy)
    counts["workqueue.dispatch_wait_s"] += duration - max(busy_by_worker.values())
    counts["workqueue.shard_skew_sum"] += max(shard_busy) / (
        sum(shard_busy) / len(shard_busy)
    )
    counts["workqueue.busy_drains"] += 1


COUNTERS: dict[str, Counter] = {
    "core.acs.acs_sequence": _count_acs,
    "core.sstd.batch_fit_decode": _count_batch_fit_decode,
    "core.sstd.discover": _count_discover,
    "core.sstd.tick": _count_discover,
    "hmm.batch.fit": _count_fit,
    "system.sstd_system.run_intervals": _count_run_intervals,
    "system.shm.publish": _count_publish,
    "workqueue.drain": _count_drain,
}


def target_holder(module_name: str, class_name: str | None) -> Any:
    """The module or class whose namespace binds a ``TARGETS`` attribute."""
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class LayerTrace:
    """Context manager: install the boundary wrappers, record one tree."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counts = collections.Counter()
        self._open: list[int] = []
        self._owner = (os.getpid(), threading.get_ident())
        self._originals: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTrace":
        for name, module_name, class_name, attribute in TARGETS:
            holder = target_holder(module_name, class_name)
            original = vars(holder)[attribute]
            self._originals.append((holder, attribute, original))
            setattr(holder, attribute, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._originals:
            holder, attribute, original = self._originals.pop()
            setattr(holder, attribute, original)

    def _wrap(self, name: str, function: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            # Nothing records outside an open root span (a late
            # ``SegmentOwner.__del__`` must not start a second tree).
            if not self._open or (os.getpid(), threading.get_ident()) != self._owner:
                return function(*args, **kwargs)
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(
                    self.counts, args, kwargs, result, self.spans[index].duration
                )
            return result

        return boundary

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans[index] = self.spans[index]._replace(end=end)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: name -> unit of every per-layer metric (``BENCHMARK.json`` lists the same).
#: :func:`layer_metrics` derives the first block from spans and boundary
#: counts; the measuring process adds the second from the run itself.
PER_LAYER: dict[str, str] = {
    "core.acs.acs_sequence_s": "s",
    "core.acs.acs_sequence_calls": "count",
    "core.acs.grid_points": "count",
    "core.acs.reports_per_s": "1/s",
    "core.acs.window_push_s": "s",
    "core.acs.window_value_s": "s",
    "core.sstd.discover_self_s": "s",
    "core.sstd.group_s": "s",
    "core.sstd.batch_fit_decode_self_s": "s",
    "core.sstd.estimates": "count",
    "core.sstd.claims_hmm": "count",
    "core.sstd.claims_fallback": "count",
    "core.sstd.push_s": "s",
    "core.sstd.push_calls": "count",
    "core.sstd.tick_self_s": "s",
    "core.sstd.tick_calls": "count",
    "core.sstd.retrain_s": "s",
    "core.sstd.retrains": "count",
    "hmm.batch.fit_self_s": "s",
    "hmm.batch.fit_calls": "count",
    "hmm.batch.emission_s": "s",
    "hmm.batch.forward_s": "s",
    "hmm.batch.backward_s": "s",
    "hmm.batch.viterbi_s": "s",
    "hmm.batch.em_iterations": "count",
    "hmm.batch.em_cells": "count",
    "hmm.batch.cells_per_s": "1/s",
    "system.jobs.build_stack_s": "s",
    "system.jobs.task_spec_s": "s",
    "system.jobs.expand_s": "s",
    "system.jobs.tasks": "count",
    "system.shm.publish_s": "s",
    "system.shm.unlink_s": "s",
    "system.shm.bytes_published": "B",
    "workqueue.spawn_s": "s",
    "workqueue.submit_s": "s",
    "workqueue.drain_s": "s",
    "workqueue.shutdown_s": "s",
    "workqueue.task_busy_s": "s",
    "workqueue.dispatch_wait_s": "s",
    "workqueue.parallel_ratio": "ratio",
    "workqueue.shard_skew": "ratio",
    "workqueue.payload_bytes_per_task": "B",
    "workqueue.result_bytes_per_task": "B",
    "workqueue.tasks_failed": "count",
    "system.sstd_system.run_intervals_self_s": "s",
    "system.sstd_system.intervals": "count",
    "trace.coverage": "ratio",
    "streams.generate_s": "s",
    "streams.reports": "count",
    "streams.claims": "count",
    "workqueue.worker_peak_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "obs.on_overhead_ratio": "ratio",
    "run.reports_per_s": "1/s",
    "run.estimates_per_s": "1/s",
    "run.op_tail_s": "s",
    "run.accuracy": "ratio",
    "run.op_fail_ratio": "ratio",
}


def layer_metrics(trace: LayerTrace) -> dict[str, float]:
    """The span- and count-derived metrics of one traced pass (0 if unused)."""
    spans = trace.spans
    counts = trace.counts
    inclusive = collections.defaultdict(float, inclusive_by_name(spans))
    own = collections.defaultdict(float, self_by_name(spans))
    calls = collections.Counter(span.name for span in spans)
    hmm_s = sum(
        own[f"hmm.batch.{part}"]
        for part in ("fit", "emission", "forward", "backward", "viterbi")
    )
    return {
        "core.acs.acs_sequence_s": inclusive["core.acs.acs_sequence"],
        "core.acs.acs_sequence_calls": calls["core.acs.acs_sequence"],
        "core.acs.grid_points": counts["core.acs.grid_points"],
        "core.acs.reports_per_s": _ratio(
            counts["core.acs.reports"], inclusive["core.acs.acs_sequence"]
        ),
        "core.acs.window_push_s": inclusive["core.acs.window_push"],
        "core.acs.window_value_s": inclusive["core.acs.window_value"],
        "core.sstd.discover_self_s": own["core.sstd.discover"],
        "core.sstd.group_s": inclusive["core.sstd.group"],
        "core.sstd.batch_fit_decode_self_s": own["core.sstd.batch_fit_decode"],
        "core.sstd.estimates": counts["core.sstd.estimates"],
        "core.sstd.claims_hmm": counts["core.sstd.claims_hmm"],
        "core.sstd.claims_fallback": counts["core.sstd.claims_fallback"],
        "core.sstd.push_s": inclusive["core.sstd.push"],
        "core.sstd.push_calls": calls["core.sstd.push"],
        "core.sstd.tick_self_s": own["core.sstd.tick"],
        "core.sstd.tick_calls": calls["core.sstd.tick"],
        "core.sstd.retrain_s": inclusive["core.sstd.retrain"],
        "core.sstd.retrains": calls["core.sstd.retrain"],
        "hmm.batch.fit_self_s": own["hmm.batch.fit"],
        "hmm.batch.fit_calls": calls["hmm.batch.fit"],
        "hmm.batch.emission_s": inclusive["hmm.batch.emission"],
        "hmm.batch.forward_s": inclusive["hmm.batch.forward"],
        "hmm.batch.backward_s": inclusive["hmm.batch.backward"],
        "hmm.batch.viterbi_s": inclusive["hmm.batch.viterbi"],
        "hmm.batch.em_iterations": counts["hmm.batch.em_iterations"],
        "hmm.batch.em_cells": counts["hmm.batch.em_cells"],
        "hmm.batch.cells_per_s": _ratio(counts["hmm.batch.em_cells"], hmm_s),
        "system.jobs.build_stack_s": inclusive["system.jobs.build_stack"],
        "system.jobs.task_spec_s": inclusive["system.jobs.task_spec"],
        "system.jobs.expand_s": inclusive["system.jobs.expand"],
        "system.jobs.tasks": calls["system.jobs.task_spec"],
        "system.shm.publish_s": inclusive["system.shm.publish"],
        "system.shm.unlink_s": inclusive["system.shm.unlink"],
        "system.shm.bytes_published": counts["system.shm.bytes_published"],
        "workqueue.spawn_s": inclusive["workqueue.spawn"],
        "workqueue.submit_s": inclusive["workqueue.submit"],
        "workqueue.drain_s": inclusive["workqueue.drain"],
        "workqueue.shutdown_s": inclusive["workqueue.shutdown"],
        "workqueue.task_busy_s": counts["workqueue.task_busy_s"],
        "workqueue.dispatch_wait_s": counts["workqueue.dispatch_wait_s"],
        "workqueue.parallel_ratio": _ratio(
            counts["workqueue.task_busy_s"], inclusive["workqueue.drain"]
        ),
        "workqueue.shard_skew": _ratio(
            counts["workqueue.shard_skew_sum"], counts["workqueue.busy_drains"]
        ),
        "workqueue.payload_bytes_per_task": _ratio(
            counts["workqueue.payload_bytes"], counts["workqueue.tasks"]
        ),
        "workqueue.result_bytes_per_task": _ratio(
            counts["workqueue.result_bytes"], counts["workqueue.tasks"]
        ),
        "workqueue.tasks_failed": counts["workqueue.tasks_failed"],
        "system.sstd_system.run_intervals_self_s": own[
            "system.sstd_system.run_intervals"
        ],
        "system.sstd_system.intervals": counts["system.sstd_system.intervals"],
        "trace.coverage": 1.0 - _ratio(own[ROOT], inclusive[ROOT]),
    }
