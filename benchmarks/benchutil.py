"""Shared helpers for the benchmark suite (import as `benchutil`)."""

import json
import os
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Mapping, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _git_sha() -> str:
    """Short sha of the checkout, suffixed ``-dirty`` if it has edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _nearest_rank(ordered: List[float], q: float) -> float:
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and nearest-rank p10/p90 of one metric's samples."""
    ordered = sorted(samples)
    return {
        "median": statistics.median(ordered),
        "p10": _nearest_rank(ordered, 10),
        "p90": _nearest_rank(ordered, 90),
    }


def record(name: str, values: Mapping[str, Sequence[float]],
           **context: Any) -> Dict[str, Any]:
    """Append one entry to ``BENCH_<name>.json`` at the repository root.

    ``values`` maps each metric to its per-round samples (every metric
    has one sample per round).  The entry carries the git sha, CPU
    count, Python version, the round count, each metric's median, p10
    and p90, and ``context`` (the benchmark's parameters).  The file is
    a JSON list, oldest entry first.
    """
    rounds = {len(samples) for samples in values.values()}
    if len(rounds) != 1 or 0 in rounds:
        raise ValueError("every metric needs the same, non-zero sample count")
    entry: Dict[str, Any] = {
        "sha": _git_sha(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rounds": rounds.pop(),
        "metrics": {metric: summarize(samples)
                    for metric, samples in values.items()},
    }
    entry.update(context)
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    history: List[Any] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    history.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry
