"""Differential equivalence: budget-expiry events vs the polling probe.

:class:`~repro.baselines.ExecutionTimeMonitor` arms one budget-expiry
check per activation on the ``probe_period`` grid instead of sampling
every grid point.  That is an optimisation, not a behaviour change: on
any schedule it must flag the same activations at the same times as the
polling reference in ``etm_oracle.py``.

Scenarios are generated from fixed seeds, so failures reproduce.  They
mix preemption by higher-priority tasks, tasks that never terminate,
activations that use exactly their budget (the bound is ``>``), two
supervised tasks, ``monitor()`` called after start, ECU software resets
in the middle of an activation, queued activations
(``max_activations > 1``), non-preemptable tasks, runs split over
several ``run_until`` calls, and new budgets set between them.  Each scenario runs twice on fresh kernels,
once per monitor.  Tick values are small so that budgets, the grid and
the segment lengths interact at every offset.
"""

import random
from collections import Counter

import pytest

from repro.baselines import ExecutionTimeMonitor
from repro.kernel import Kernel, Segment, Task, TraceKind

from etm_oracle import PollingExecutionTimeMonitor

BLOCKS = 8
SEEDS_PER_BLOCK = 30


def _scenario(seed):
    rng = random.Random(seed)
    tasks = []
    for index in range(rng.randint(1, 4)):
        spin = rng.random() < 0.2
        tasks.append({
            "name": f"T{index}",
            "priority": rng.randint(1, 5),
            "segments": [rng.randint(1 if spin else 0, 12)
                         for _ in range(rng.randint(1, 4))],
            "spin": spin,
            "max_activations": rng.choice((1, 1, 2, 3)),
            "preemptable": rng.random() > 0.1,
            "autostart": rng.random() < 0.2,
        })
    horizon = rng.randint(150, 400)
    monitored = rng.sample(tasks, min(len(tasks), rng.choice((1, 2, 2))))
    budgets = {}
    for task in monitored:
        demand = sum(task["segments"])
        if not task["spin"] and demand and rng.random() < 0.4:
            budgets[task["name"]] = demand  # used == budget is not flagged
        else:
            budgets[task["name"]] = rng.randint(1, 40)
    activations = []
    for task in tasks:
        period = rng.randint(8, 60)
        when = rng.randint(0, period)
        while when <= horizon:
            activations.append((when, task["name"]))
            when += period if rng.random() > 0.2 else rng.randint(0, 3)
    resets = sorted(rng.randint(1, horizon) for _ in range(rng.choice((0, 0, 1, 2))))
    monitor_at = rng.choice((None, 0, rng.randint(1, 60)))
    breaks = sorted(rng.randint(0, horizon) for _ in range(rng.randint(0, 2)))
    # At some breaks a supervised task gets a new budget, possibly while
    # one of its activations is in flight.
    rebudgets = [
        (rng.choice(sorted(budgets)), rng.randint(1, 40))
        if rng.random() < 0.5 else None
        for _ in breaks
    ]
    return {
        "tasks": tasks,
        "budgets": budgets,
        "probe_period": rng.randint(1, 8),
        "activations": activations,
        "resets": resets,
        "monitor_at": monitor_at,
        "breaks": breaks,
        "rebudgets": rebudgets,
        "horizon": horizon,
    }


def _body(segments, spin):
    def body(task):
        while True:
            for duration in segments:
                yield Segment(duration)
            if not spin:
                return

    return body


def _activator(kernel, name):
    return lambda: kernel.activate_task(name)


def _run(scenario, monitor_cls):
    """Build the scenario on a fresh kernel and run it to the horizon."""
    kernel = Kernel()
    for spec in scenario["tasks"]:
        kernel.add_task(Task(
            spec["name"], spec["priority"], _body(spec["segments"], spec["spin"]),
            preemptable=spec["preemptable"],
            max_activations=spec["max_activations"],
            autostart=spec["autostart"],
        ))
    # Activations and resets come from outside the ECU: they survive resets.
    for when, name in scenario["activations"]:
        kernel.queue.schedule(when, _activator(kernel, name), persistent=True)
    for when in scenario["resets"]:
        kernel.queue.schedule(when, kernel.soft_reset, persistent=True)
    monitor = monitor_cls(kernel, probe_period=scenario["probe_period"])
    # Ground truth for the coverage test: (CPU used, budget) per finished
    # supervised activation, and whether a reset cut one short, a
    # supervised task was preempted, an activation was queued behind a
    # pending one, or a budget changed mid-activation.
    facts = {"finished": [], "reset_mid_activation": False, "preempted": False,
             "queued": False, "rebudget_in_flight": False}

    def note_end(kernel, task):
        baseline = monitor._baseline.get(task.name)
        if baseline is not None:
            used = kernel.task_cpu_ticks[task.name] - baseline
            facts["finished"].append((used, monitor.budgets[task.name]))

    def note_record(record):
        if record.kind is TraceKind.TASK_PREEMPT:
            if record.subject in scenario["budgets"]:
                facts["preempted"] = True
        elif record.kind is TraceKind.TASK_ACTIVATE:
            if (record.subject in scenario["budgets"]
                    and kernel.tasks[record.subject].pending_activations > 1):
                facts["queued"] = True
        elif record.kind is TraceKind.ECU_RESET and any(
            task.generator is not None and task.name in scenario["budgets"]
            for task in kernel.tasks.values()
        ):
            facts["reset_mid_activation"] = True

    kernel.hooks.post_task.insert(0, note_end)
    kernel.trace.subscribe(note_record)
    if scenario["monitor_at"] is not None:
        kernel.run_until(scenario["monitor_at"])
    for task, budget in scenario["budgets"].items():
        monitor.monitor(task, budget)
    for when, rebudget in zip(scenario["breaks"], scenario["rebudgets"]):
        if when >= kernel.clock.now:
            kernel.run_until(when)
        if rebudget is not None:
            task, budget = rebudget
            if task in monitor._baseline:
                facts["rebudget_in_flight"] = True
            monitor.monitor(task, budget)
    kernel.run_until(scenario["horizon"])
    return kernel, monitor, facts


def _split_trace(kernel, monitor_name):
    kernel_records, budget_records = [], []
    for record in kernel.trace:
        if record.kind is TraceKind.CUSTOM and record.subject == monitor_name:
            budget_records.append(
                (record.time, record.info["task"], record.info["used"]))
        else:
            kernel_records.append(record)
    return kernel_records, budget_records


def _compare(seed):
    scenario = _scenario(seed)
    ref_kernel, reference, facts = _run(scenario, PollingExecutionTimeMonitor)
    new_kernel, monitor, _ = _run(scenario, ExecutionTimeMonitor)
    assert monitor.violation_times == reference.violation_times, seed
    assert monitor.violations_by_task == reference.violations_by_task, seed
    ref_records, ref_budget = _split_trace(ref_kernel, reference.name)
    new_records, new_budget = _split_trace(new_kernel, monitor.name)
    assert new_budget == ref_budget, seed
    # The monitors only observe: the kernel's own history is untouched.
    assert new_records == ref_records, seed
    return scenario, reference, facts


@pytest.mark.parametrize("block", range(BLOCKS))
def test_expiry_events_match_polling_probe(block):
    for seed in range(block * SEEDS_PER_BLOCK, (block + 1) * SEEDS_PER_BLOCK):
        _compare(seed)


def test_generated_scenarios_cover_every_case():
    """The generator really produces the cases the module docstring
    names, so a green differential run means something."""
    seen = Counter()
    for seed in range(BLOCKS * SEEDS_PER_BLOCK):
        scenario, reference, facts = _compare(seed)
        budgets = scenario["budgets"]
        tasks = {spec["name"]: spec for spec in scenario["tasks"]}
        seen["violations"] += bool(reference.violation_times)
        seen["two_monitored"] += len(budgets) == 2
        seen["late_monitor"] += bool(scenario["monitor_at"])
        seen["reset_mid_activation"] += facts["reset_mid_activation"]
        seen["queued"] += facts["queued"]
        seen["spin_flagged"] += any(
            tasks[name]["spin"] for name in reference.violations_by_task)
        seen["exactly_budget"] += any(
            used == budget for used, budget in facts["finished"])
        seen["preempted"] += facts["preempted"]
        seen["rebudget_in_flight"] += facts["rebudget_in_flight"]
    for case in ("violations", "two_monitored", "late_monitor",
                 "reset_mid_activation", "queued", "spin_flagged",
                 "exactly_budget", "preempted", "rebudget_in_flight"):
        assert seen[case] >= 10, (case, seen)


def test_reset_mid_activation_keeps_grid():
    """A software reset in the middle of a supervised activation: the
    activation's CPU stops growing and the restarted task gets a fresh
    budget, both monitors agreeing on every flag."""
    scenario = {
        "tasks": [{"name": "Spin", "priority": 3, "segments": [4],
                   "spin": True, "max_activations": 1, "preemptable": True,
                   "autostart": False}],
        "budgets": {"Spin": 10},
        "probe_period": 3,
        "activations": [(2, "Spin"), (30, "Spin")],
        "resets": [7, 25],
        "monitor_at": 1,
        "breaks": [],
        "rebudgets": [],
        "horizon": 80,
    }
    _, reference, _ = _run(scenario, PollingExecutionTimeMonitor)
    _, monitor, _ = _run(scenario, ExecutionTimeMonitor)
    # Activation at 2 is reset at 7 (5 ticks used); the one at 30 spins.
    # used > 10 from tick 41; the first grid point 1 + 3k at or after is 43.
    assert reference.violation_times == [43]
    assert monitor.violation_times == reference.violation_times
