"""Serial E1 campaign throughput: the simulation kernel's end-to-end cost.

Runs whole serial passes over ``standard_fault_specs()`` with the
campaign shape of the ``fleet`` workload in ``perfbench/``: 300 ms
warm-up and 2 s observation per run, ``workers=1``.  Every run builds a
fresh ECU with all four monitors, so the figure moves with the kernel,
the platform, the fault models and the watchdog core together.

* **runs_per_s** — runs of one round (``PASSES_PER_ROUND`` whole passes)
  divided by the round's wall-clock seconds;
* **events per run** — timed events the kernel scheduled per run, split
  by label prefix (``etm``, ``alarm``, ``deadline``, ``hwwd``), and the
  kernel's scheduling steps per run.  Both are counted once, in a
  separate untimed pass, because the counting wrappers cost time.  They
  are deterministic, so they are stored as context, not as samples.

Each run appends one entry to ``BENCH_campaign.json`` at the repository
root (``benchutil.record``).  Compare entries from one session only.
"""

import time
from collections import Counter

from benchutil import record
from repro.experiments.coverage import standard_fault_specs
from repro.faults import Campaign
from repro.kernel import EventQueue, Kernel, ms, seconds

WARMUP = ms(300)
OBSERVATION = seconds(2)
PASSES_PER_ROUND = 2
ROUNDS = 7


def _campaign():
    return Campaign("coverage", warmup=WARMUP, observation=OBSERVATION)


def count_work(monkeypatch, specs):
    """Events scheduled (by label prefix) and kernel steps, per run."""
    labels = Counter()
    steps = [0]
    schedule = EventQueue.schedule
    step = Kernel._step

    def counting_schedule(self, when, callback, label="", **kwargs):
        labels[label.split(":", 1)[0]] += 1
        return schedule(self, when, callback, label, **kwargs)

    def counting_step(self, end_time):
        steps[0] += 1
        return step(self, end_time)

    with monkeypatch.context() as patch:
        patch.setattr(EventQueue, "schedule", counting_schedule)
        patch.setattr(Kernel, "_step", counting_step)
        _campaign().execute(specs, workers=1)
    runs = len(specs)
    events = {label: count / runs for label, count in sorted(labels.items())}
    events["total"] = sum(labels.values()) / runs
    return events, steps[0] / runs


def measure(specs):
    campaign = _campaign()
    campaign.execute(specs[:1], workers=1)  # imports and first build
    rates = []
    outcomes = None
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        runs = []
        for _ in range(PASSES_PER_ROUND):
            runs.extend(campaign.execute(specs, workers=1).runs)
        rates.append(len(runs) / (time.perf_counter() - begin))
        if outcomes is None:
            outcomes = runs
        assert runs == outcomes, "a serial pass is not deterministic"
    return rates, outcomes


def test_bench_campaign_serial(benchmark, monkeypatch):
    specs = standard_fault_specs(1)
    rates, runs = benchmark.pedantic(
        measure, args=(specs,), rounds=1, iterations=1)
    for run in runs:
        assert run.detected_by("SoftwareWatchdog"), run.fault_name
    events, steps = count_work(monkeypatch, specs)
    entry = record(
        "campaign",
        {"runs_per_s": rates},
        runs_per_round=PASSES_PER_ROUND * len(specs),
        warmup_ms=300,
        observation_s=2,
        events_per_run=events,
        steps_per_run=steps,
    )
    print(f"\nserial E1: {entry['metrics']['runs_per_s']['median']:.1f} runs/s "
          f"(median of {entry['rounds']} rounds); per run "
          f"{events['total']:.0f} events {dict(events)}, {steps:.0f} steps")
