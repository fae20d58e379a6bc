"""Fault-injection campaigns: coverage and latency accounting.

The paper's outlook names "further analysis of fault detection coverage"
as the next step; this module is that analysis.  A campaign runs many
independent experiments — fresh system, warm-up, inject one fault,
observe — and tabulates per fault class and per detector:

* **coverage** — fraction of injections the detector flagged,
* **detection latency** — time from injection to first detection.

Detectors are anything exposing ``name`` and
``first_detection_after(t)``; the Software Watchdog and every baseline
monitor provide adapters via :class:`DetectionRecorder`.
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import DEFAULT_DURATION_BUCKETS, NULL_REGISTRY
from .injector import ErrorInjector
from .models import FaultModel, FaultTarget
from .registry import FaultSpec, RunSpec, SystemSpec, execute_chunk


class DetectionRecorder:
    """Collects detection timestamps for one monitor.

    ``times`` is kept sorted: detections normally arrive in
    monotonically increasing simulation time, in which case ``record``
    is an O(1) append; an out-of-order timestamp (a detector replaying
    a buffered event) is insorted instead of rejected.  Queries are
    then a single ``bisect`` rather than a linear scan — campaigns call
    ``first_detection_after`` once per (run × detector), and long
    observation windows accumulate thousands of detections.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[int] = []

    def record(self, time: int) -> None:
        """Note one detection event (keeps ``times`` sorted)."""
        if self.times and time < self.times[-1]:
            insort(self.times, time)
        else:
            self.times.append(time)

    def first_detection_after(self, time: int) -> Optional[int]:
        """Earliest detection at or after ``time`` (None = undetected)."""
        index = bisect_left(self.times, time)
        return self.times[index] if index < len(self.times) else None

    def clear(self) -> None:
        self.times.clear()


def watchdog_detector(
    watchdog, name: str = "SoftwareWatchdog", error_type=None
) -> DetectionRecorder:
    """Adapter recording runnable errors the watchdog detects.

    Pass an :class:`~repro.core.reports.ErrorType` to record only one
    detection channel (used by the latency study to attribute latency to
    the aliveness / arrival-rate / flow monitors individually).
    """
    recorder = DetectionRecorder(name)

    def on_error(error):
        if error_type is None or error.error_type is error_type:
            recorder.record(error.time)

    watchdog.add_fault_listener(on_error)
    return recorder


@dataclass
class CampaignSystem:
    """One freshly built system under test."""

    target: FaultTarget
    detectors: List[DetectionRecorder]
    run_until: Callable[[int], None]
    now: Callable[[], int]
    #: Arbitrary extras a system factory wants to expose to fault factories.
    context: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of one injection experiment."""

    fault_name: str
    fault_class: str
    expected_error: str
    inject_time: int
    #: detector name → detection time (None = missed).
    detections: Dict[str, Optional[int]] = field(default_factory=dict)

    def latency(self, detector: str) -> Optional[int]:
        t = self.detections.get(detector)
        return None if t is None else t - self.inject_time

    def detected_by(self, detector: str) -> bool:
        return self.detections.get(detector) is not None


@dataclass
class CampaignResult:
    """All runs of one campaign plus aggregation helpers."""

    runs: List[RunResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def fault_classes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run.fault_class, None)
        return list(seen)

    def detectors(self) -> List[str]:
        seen: Dict[str, None] = {}
        for run in self.runs:
            for name in run.detections:
                seen.setdefault(name, None)
        return list(seen)

    def coverage(self, detector: str, fault_class: Optional[str] = None) -> float:
        """Fraction of injections detected (1.0 = all)."""
        relevant = [
            r for r in self.runs if fault_class is None or r.fault_class == fault_class
        ]
        if not relevant:
            return 0.0
        hits = sum(1 for r in relevant if r.detected_by(detector))
        return hits / len(relevant)

    def latencies(self, detector: str, fault_class: Optional[str] = None) -> List[int]:
        """All observed latencies (ticks) for detected injections."""
        out = []
        for run in self.runs:
            if fault_class is not None and run.fault_class != fault_class:
                continue
            latency = run.latency(detector)
            if latency is not None:
                out.append(latency)
        return out

    def mean_latency(self, detector: str, fault_class: Optional[str] = None) -> Optional[float]:
        values = self.latencies(detector, fault_class)
        return sum(values) / len(values) if values else None

    def coverage_table(self) -> List[Dict[str, object]]:
        """One row per (fault class, detector): coverage + mean latency.

        Single pass over the runs into per-(class, detector) buckets;
        the naive formulation (``coverage`` + ``mean_latency`` + a run
        count per row) rescans the full run list classes × detectors ×
        3 times, which dominates aggregation cost on large campaigns.
        """
        class_order: List[str] = []
        detector_order: List[str] = []
        runs_per_class: Dict[str, int] = {}
        # (class, detector) -> [hits, latency_sum, latency_count]
        buckets: Dict[Tuple[str, str], List[int]] = {}
        for run in self.runs:
            fault_class = run.fault_class
            if fault_class not in runs_per_class:
                runs_per_class[fault_class] = 0
                class_order.append(fault_class)
            runs_per_class[fault_class] += 1
            for detector, detected_at in run.detections.items():
                if detector not in detector_order:
                    detector_order.append(detector)
                bucket = buckets.setdefault((fault_class, detector), [0, 0, 0])
                if detected_at is not None:
                    bucket[0] += 1
                    bucket[1] += detected_at - run.inject_time
                    bucket[2] += 1
        rows: List[Dict[str, object]] = []
        for fault_class in class_order:
            for detector in detector_order:
                hits, latency_sum, latency_count = buckets.get(
                    (fault_class, detector), (0, 0, 0)
                )
                rows.append(
                    {
                        "fault_class": fault_class,
                        "detector": detector,
                        "coverage": hits / runs_per_class[fault_class],
                        "mean_latency": (
                            latency_sum / latency_count if latency_count else None
                        ),
                        "runs": runs_per_class[fault_class],
                    }
                )
        return rows


FaultFactory = Callable[[CampaignSystem], FaultModel]
SystemFactory = Callable[[], CampaignSystem]

#: ``progress(done_runs, total_runs)`` — called after every completed
#: run (serial) or every completed chunk (parallel).
ProgressCallback = Callable[[int, int], None]


class Campaign:
    """Runs one injection experiment per fault factory.

    ``system_factory`` may be a plain callable (the historical API), a
    :class:`~repro.faults.registry.SystemSpec`, or a registered system
    name (shorthand for a parameterless spec).  Spec-based campaigns can
    additionally fan out across worker processes — see :meth:`execute`.
    """

    def __init__(
        self,
        system_factory: Union[SystemFactory, SystemSpec, str],
        *,
        warmup: int,
        observation: int,
        transient_duration: Optional[int] = None,
        telemetry=None,
    ) -> None:
        if warmup < 0 or observation <= 0:
            raise ValueError("warmup must be >= 0 and observation > 0")
        if isinstance(system_factory, str):
            system_factory = SystemSpec.of(system_factory)
        self.system_spec = (
            system_factory if isinstance(system_factory, SystemSpec) else None
        )
        self.system_factory = system_factory
        self.warmup = warmup
        self.observation = observation
        self.transient_duration = transient_duration
        # Campaign instruments.  Every run is timed; with the null
        # registry (the default) the durations are simply not observed.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_enabled = self.telemetry.enabled
        tm = self.telemetry
        self._tm_runs = tm.counter(
            "campaign_runs_total", "Injection experiments completed")
        self._tm_run_seconds = tm.histogram(
            "campaign_run_seconds",
            "Wall-clock duration of one injection experiment",
            buckets=DEFAULT_DURATION_BUCKETS,
        )
        self._tm_utilization = tm.gauge(
            "campaign_worker_utilization",
            "Busy fraction of the worker pool over the last parallel execute "
            "(sum of per-run wall time / (elapsed time x workers))",
        )

    def execute(
        self,
        fault_factories: Sequence[FaultFactory],
        *,
        workers: int = 1,
        progress: Optional[ProgressCallback] = None,
        chunksize: Optional[int] = None,
        seed: int = 0,
    ) -> CampaignResult:
        """Run every fault in its own fresh system.

        ``workers=1`` (default) runs serially in this process;
        ``workers=N`` fans the runs out over a ``ProcessPoolExecutor``;
        ``workers=0`` means ``os.cpu_count()``.  Parallel execution
        requires picklable run descriptions: the campaign must have been
        built from a :class:`SystemSpec` (or registered name) and every
        entry of ``fault_factories`` must be a :class:`FaultSpec`.

        The merged result is **order-stable and bit-for-bit identical**
        to the serial run: runs appear in ``fault_factories`` order
        regardless of which worker finished first, and serial and
        parallel paths share one run implementation
        (:func:`~repro.faults.registry.execute_run`).

        ``chunksize`` batches runs per worker dispatch (default: spread
        over ~4 chunks per worker) so interpreter and pickling overhead
        amortizes across many short simulations.  ``seed`` offsets the
        per-run seeds recorded in the specs.
        """
        factories = list(fault_factories)
        if workers == 0:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError("workers must be >= 0")
        specs = self._run_specs(factories, seed, require=workers > 1)
        total = len(factories)
        result = CampaignResult()
        if workers == 1 or total == 0:
            if specs is not None:
                # Same code path a worker runs — the equivalence anchor.
                for index, spec in enumerate(specs):
                    runs, durations = execute_chunk([spec])
                    result.runs.extend(runs)
                    if self._tm_enabled:
                        self._tm_record_runs(durations)
                    if progress is not None:
                        progress(index + 1, total)
            else:
                for index, factory in enumerate(factories):
                    begin = perf_counter()
                    result.runs.append(self._run_one(factory))
                    if self._tm_enabled:
                        self._tm_record_runs([perf_counter() - begin])
                    if progress is not None:
                        progress(index + 1, total)
            return result
        result.runs.extend(
            self._execute_parallel(specs, workers, progress, chunksize)
        )
        return result

    # ------------------------------------------------------------------
    def _run_specs(
        self, factories: Sequence[FaultFactory], seed: int, *, require: bool
    ) -> Optional[List[RunSpec]]:
        """Describe the runs as picklable specs, or ``None`` when the
        campaign uses closures (legacy serial-only mode)."""
        speccable = self.system_spec is not None and all(
            isinstance(f, FaultSpec) for f in factories
        )
        if not speccable:
            if require:
                raise ValueError(
                    "parallel execution needs picklable run specs: build the "
                    "Campaign from a SystemSpec (or registered system name) "
                    "and pass FaultSpec entries, not closures"
                )
            return None
        return [
            RunSpec(
                system=self.system_spec,
                fault=factory,
                warmup=self.warmup,
                observation=self.observation,
                transient_duration=self.transient_duration,
                seed=seed + index,
            )
            for index, factory in enumerate(factories)
        ]

    def _execute_parallel(
        self,
        specs: List[RunSpec],
        workers: int,
        progress: Optional[ProgressCallback],
        chunksize: Optional[int],
    ) -> List[RunResult]:
        total = len(specs)
        if chunksize is None:
            chunksize = max(1, -(-total // (workers * 4)))
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        chunks = [specs[i:i + chunksize] for i in range(0, total, chunksize)]
        collected: List[Optional[List[RunResult]]] = [None] * len(chunks)
        done = 0
        timed = self._tm_enabled
        busy_seconds = 0.0
        begin = perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_chunk, chunk): index
                for index, chunk in enumerate(chunks)
            }
            for future in as_completed(futures):
                index = futures[future]
                collected[index], durations = future.result()
                if timed:
                    busy_seconds += sum(durations)
                    self._tm_record_runs(durations)
                done += len(collected[index])
                if progress is not None:
                    progress(done, total)
        if timed:
            elapsed = perf_counter() - begin
            if elapsed > 0.0:
                self._tm_utilization.set(busy_seconds / (elapsed * workers))
        return [run for chunk in collected for run in chunk]

    def _tm_record_runs(self, durations: Sequence[float]) -> None:
        self._tm_runs.inc(len(durations))
        for duration in durations:
            self._tm_run_seconds.observe(duration)

    # ------------------------------------------------------------------
    def _run_one(self, factory: FaultFactory) -> RunResult:
        system = self.system_factory()
        system.run_until(self.warmup)
        fault = factory(system)
        injector = ErrorInjector(system.target)
        inject_time = system.now()
        injector.inject_now(fault)
        if self.transient_duration is not None:
            system.target.kernel.queue.schedule(
                inject_time + self.transient_duration,
                lambda: fault.restore(system.target),
                label=f"restore:{fault.name}",
                persistent=True,
            )
        system.run_until(inject_time + self.observation)
        detections = {
            det.name: det.first_detection_after(inject_time)
            for det in system.detectors
        }
        return RunResult(
            fault_name=fault.name,
            fault_class=type(fault).__name__,
            expected_error=fault.expected_error,
            inject_time=inject_time,
            detections=detections,
        )
