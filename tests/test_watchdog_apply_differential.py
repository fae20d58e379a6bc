"""Differential equivalence: the inline indication loop vs per-entry calls.

:meth:`SoftwareWatchdog.heartbeat_batch` applies the common entry (a
known, active runnable that flow checking ignores or sees take an
allowed transition) inline, without calling into the units.  That is an
optimisation, not a behaviour change: on any batch it must return the
same ``(applied, malformed, errors)``, emit the same errors in the same
order, and leave HBM, PFC and TSI in the same state as the reference
loop in ``apply_oracle.py``, which calls ``observe`` and then
``heartbeat_slot`` for every entry.

Scenarios are generated from fixed seeds, so failures reproduce.  They
mix flow tables with and without monitored runnables, allowed and
violating transitions, unknown runnables, deactivated slots, eager
arrival detection on and off, malformed entries, ``None`` times and
``None`` tasks with and without task attribution, and a fault listener
that raises or restores a saved state mid-batch.  Check cycles and task
starts between batches let errors and stream resets interleave with the
indications.
"""

import random
from collections import Counter

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis, SoftwareWatchdog

from apply_oracle import reference_heartbeat_batch

SEEDS = range(300)


def _hypothesis(rng):
    hyp = FaultHypothesis()
    names = [f"r{i}" for i in range(rng.randint(1, 6))]
    tasks = ["T0", "T1", None]
    for name in names:
        hyp.add_runnable(RunnableHypothesis(
            name,
            # A runnable without a task has no attribution: its None-task
            # indications fall to the global stream.
            task=rng.choice(tasks),
            aliveness_period=rng.randint(1, 4),
            min_heartbeats=rng.randint(0, 2),
            arrival_period=rng.randint(1, 4),
            max_heartbeats=rng.randint(0, 4),
            active=rng.random() > 0.15,
        ))
    flow = rng.choice(("none", "some", "all"))
    if flow != "none":
        chosen = names if flow == "all" else rng.sample(
            names, rng.randint(1, len(names)))
        hyp.allow_sequence(chosen)
        for _ in range(rng.randint(0, 3)):
            hyp.allow_flow(rng.choice([None] + chosen), rng.choice(chosen))
    return hyp, names, flow


def _entry(rng, names):
    roll = rng.random()
    if roll < 0.06:
        return rng.choice((
            "abc", 7, None, ["r0"], ["r0", 1], ["r0", 1, "T0", 4],
            [1, 2, None], ["r0", "1", None], ["r0", 1.5, None],
            ["r0", 1, 5], {"a": 1, "b": 2, "c": 3}, ("r0", True, None),
        ))
    runnable = rng.choice(names) if roll < 0.92 else rng.choice(
        ("ghost", "r9", ""))
    time = None if rng.random() < 0.25 else rng.randint(0, 10 ** 6)
    task = rng.choice((None, None, "T0", "T1", "T2", ""))
    return [runnable, time, task]


def _scenario(seed):
    rng = random.Random(seed)
    hyp, names, flow = _hypothesis(rng)
    steps = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.15:
            steps.append(("cycle", rng.randint(0, 10 ** 6)))
        elif roll < 0.25:
            steps.append(("start", rng.choice(("T0", "T1", None))))
        elif roll < 0.32:
            steps.append(("active", rng.choice(names), rng.random() < 0.5))
        else:
            batch = [_entry(rng, names) for _ in range(rng.randint(0, 16))]
            steps.append(("batch", batch, rng.choice((None, rng.randint(0, 99)))))
    return {
        "hyp": hyp,
        "flow": flow,
        "eager": rng.random() < 0.3,
        # Raise from the n-th error delivered to the fault listener.
        "raise_at": rng.choice((None, None, rng.randint(1, 6))),
        # Restore the initial state from the n-th error: the PFC unit
        # then holds a new predecessor dict in the middle of a batch.
        "restore_at": rng.choice((None, None, rng.randint(1, 6))),
        "steps": steps,
    }


def _run(scenario, apply):
    watchdog = SoftwareWatchdog(
        scenario["hyp"],
        eager_arrival_detection=scenario["eager"],
        lint="off",
    )
    hbm, pfc = watchdog.hbm, watchdog.pfc
    initial = watchdog.snapshot_state()
    log = []

    def record(error):
        # The unit tallies a listener sees must be current too.
        log.append((error, hbm.heartbeat_count, hbm.unknown_heartbeats,
                    pfc.observation_count, pfc.lookup_operations,
                    list(hbm.counters.ac), list(hbm.counters.arc),
                    dict(pfc._last)))
        if len(log) == scenario["restore_at"]:
            watchdog.restore_state(initial)
        if len(log) == scenario["raise_at"]:
            raise RuntimeError(f"listener failed on error {len(log)}")

    watchdog.add_fault_listener(record)
    results = []
    for step in scenario["steps"]:
        if step[0] == "cycle":
            try:
                watchdog.check_cycle(step[1])
            except RuntimeError as exc:
                results.append(("cycle raised", str(exc)))
        elif step[0] == "start":
            watchdog.notify_task_start(step[1])
        elif step[0] == "active":
            watchdog.set_activation_status(step[1], step[2])
        else:
            applied, malformed, errors = apply(watchdog, step[1], step[2])
            results.append((applied, malformed,
                            [(type(e).__name__, str(e)) for e in errors]))
    return watchdog, results, log


def _state(watchdog):
    hbm, pfc = watchdog.hbm, watchdog.pfc
    return {
        "ac": list(hbm.counters.ac),
        "arc": list(hbm.counters.arc),
        "heartbeat_count": hbm.heartbeat_count,
        "unknown_heartbeats": hbm.unknown_heartbeats,
        "counter_resets": hbm.counter_resets,
        "last": dict(pfc._last),
        "observation_count": pfc.observation_count,
        "lookup_operations": pfc.lookup_operations,
        "violation_count": pfc.violation_count,
        "tsi": watchdog.tsi.snapshot_state(),
        "snapshot": watchdog.snapshot_state(),
    }


def _inline(watchdog, batch, stamp):
    return watchdog.heartbeat_batch(batch, stamp)


@pytest.mark.parametrize("block", range(6))
def test_inline_loop_matches_reference(block):
    for seed in SEEDS[block::6]:
        scenario = _scenario(seed)
        fast, fast_results, fast_log = _run(scenario, _inline)
        slow, slow_results, slow_log = _run(
            scenario, reference_heartbeat_batch)
        assert fast_results == slow_results, f"seed {seed}"
        assert fast_log == slow_log, f"seed {seed}"
        assert _state(fast) == _state(slow), f"seed {seed}"


def test_scenarios_cover_every_case():
    """Each case the inline loop distinguishes occurs in many scenarios."""
    cases = Counter()
    for seed in SEEDS:
        scenario = _scenario(seed)
        watchdog, results, log = _run(scenario, _inline)
        hit = set()
        hit.add(f"flow={scenario['flow']}")
        hit.add(f"eager={scenario['eager']}")
        if watchdog.pfc.violation_count:
            hit.add("violation")
        if watchdog.pfc.observation_count > watchdog.pfc.violation_count:
            hit.add("allowed transition")
        if watchdog.hbm.unknown_heartbeats:
            hit.add("unknown runnable")
        if any(step[0] == "active" and not step[2]
               for step in scenario["steps"]) or not all(
                   watchdog.hbm.counters.active):
            hit.add("deactivated slot")
        if any(r[1] for r in results if len(r) == 3):
            hit.add("malformed")
        if any(r[2] for r in results if len(r) == 3):
            hit.add("listener raised mid-batch")
        if scenario["restore_at"] is not None and len(log) >= scenario["restore_at"]:
            hit.add("state restored by a listener")
        if any(e.details.get("eager") for e, *_ in log):
            hit.add("eager detection")
        batches = [s for s in scenario["steps"] if s[0] == "batch"]
        if any(e[1] is None for s in batches for e in s[1]
               if isinstance(e, list) and len(e) == 3):
            hit.add("None time")
        attributed = {n for n, h in scenario["hyp"].runnables.items()
                      if h.task is not None}
        for s in batches:
            for e in s[1]:
                if isinstance(e, list) and len(e) == 3 and e[2] is None:
                    hit.add("None task, attributed" if e[0] in attributed
                            else "None task, unattributed")
        cases.update(hit)
    expected = {
        "flow=none", "flow=some", "flow=all", "eager=True", "eager=False",
        "violation", "allowed transition", "unknown runnable",
        "deactivated slot", "malformed", "listener raised mid-batch",
        "state restored by a listener",
        "eager detection", "None time", "None task, attributed",
        "None task, unattributed",
    }
    rare = {case: cases[case] for case in expected if cases[case] < 10}
    assert not rare, f"cases seen in fewer than 10 scenarios: {rare}"
