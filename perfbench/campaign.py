"""The E1 fault-injection campaign: the ``fleet`` workload's campaign process.

Usage::

    python3 perfbench/campaign.py --seed N --seconds S [--trace]
    python3 perfbench/campaign.py --write-golden

Times its own set-up (imports plus the first system build), then runs
serial (``workers=1``) passes over ``standard_fault_specs()`` in a
seeded order until ``S`` seconds have passed (``S=0``: set-up only).
Every run's simulated first-detection latency per detector, and the
coverage table, are compared with ``golden_campaign.json``, which was
generated at the commit that introduced this benchmark.  Prints one
JSON object on stdout; with ``--trace`` it carries the span report.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

GOLDEN = os.path.join(HERE, "golden_campaign.json")
WARMUP_MS = 300
OBSERVATION_S = 2


def install(tracer) -> None:
    """Wrap the simulation-side layers (see README.md)."""
    import repro.lint
    from repro.core import watchdog
    from repro.faults import registry
    from repro.platform import ecu

    # getattr: a renamed class loses its spans (Tracer.wrap skips None).
    SoftwareWatchdog = getattr(watchdog, "SoftwareWatchdog", None)
    Ecu = getattr(ecu, "Ecu", None)

    def on_cycle(args, errors):
        tracer.count("core.detections", len(errors))

    tracer.wrap(getattr(registry, "SystemSpec", None), "build", "faults.build")
    tracer.wrap(registry, "execute_run", "faults.run")
    tracer.wrap(Ecu, "run_until", "kernel.run")
    tracer.wrap(SoftwareWatchdog, "heartbeat_indication", "core.heartbeat")
    tracer.wrap(SoftwareWatchdog, "check_cycle", "core.check_cycle",
                on_result=on_cycle)
    tracer.wrap(repro.lint, "lint_hypothesis", "lint.lint")


def _outcome(run) -> dict:
    return {
        "fault_class": run.fault_class,
        "expected_error": run.expected_error,
        "latency_us": {
            det: (None if at is None else at - run.inject_time)
            for det, at in sorted(run.detections.items())
        },
    }


def _table(result) -> list:
    rows = [
        {k: row[k] for k in ("fault_class", "detector", "coverage",
                             "mean_latency")}
        for row in result.coverage_table()
    ]
    return sorted(rows, key=lambda row: (row["fault_class"], row["detector"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        install(tracer)

    from repro.experiments.coverage import standard_fault_specs
    from repro.faults.campaigns import Campaign, CampaignResult
    from repro.faults.registry import SystemSpec
    from repro.kernel.clock import ms, seconds
    from schedule import campaign_order

    SystemSpec.of("coverage").build()
    setup_s = time.perf_counter() - _T0

    specs = standard_fault_specs(1)
    campaign = Campaign("coverage", warmup=ms(WARMUP_MS),
                        observation=seconds(OBSERVATION_S))

    if args.write_golden:
        result = campaign.execute(specs, workers=1)
        golden = {
            "runs": {run.fault_name: _outcome(run) for run in result.runs},
            "coverage_table": _table(result),
        }
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)

    if tracer is not None:
        tracer.reset()
    result = CampaignResult()
    mismatches = []
    raised = 0
    passes = 0
    pass_s = []
    begin = time.perf_counter()
    elapsed = 0.0
    while args.seconds > 0 and elapsed < args.seconds:
        pass_begin = time.perf_counter()
        for index in campaign_order(args.seed, passes, len(specs)):
            try:
                runs = campaign.execute(
                    [specs[index]], workers=1,
                    seed=args.seed * 1000 + passes * len(specs) + index,
                ).runs
            except Exception as exc:  # a raising run is a counted failure
                raised += 1
                print(f"campaign run raised: {exc!r}", file=sys.stderr)
                continue
            for run in runs:
                expected = golden["runs"].get(run.fault_name)
                if _outcome(run) != expected:
                    mismatches.append(run.fault_name)
                result.runs.append(run)
        passes += 1
        pass_s.append(time.perf_counter() - pass_begin)
        elapsed = time.perf_counter() - begin

    attempted = passes * len(specs)
    if passes and not raised:
        # Full passes only: coverage and mean latency must equal the
        # golden single pass exactly.
        if _table(result) != golden["coverage_table"]:
            mismatches.append("coverage_table")
    report = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "runs": len(result.runs),
        "attempted": attempted,
        "raised": raised,
        "passes": passes,
        "runs_per_pass": len(specs),
        "pass_s": pass_s,
        "mismatches": sorted(set(mismatches)),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
