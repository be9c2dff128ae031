#!/usr/bin/env python
"""Run the ``bench``-marked suite and write the perf trajectory as JSON.

Each benchmark that pins a performance floor reports its headline metric
through :func:`benchmarks.conftest.record_bench`; this driver runs them all
and collects the rows into ``BENCH_trajectory.json``::

    [
      {"id": "prefix_cache::ttft_ratio", "metric": "ttft_ratio_x",
       "value": 15.3, "floor": 2.0, "unit": null},
      ...
    ]

so the perf trajectory across PRs is machine-readable (CI uploads the file
as an artifact from a non-blocking job).

    python scripts/bench.py [--output PATH] [pytest args...]

Extra arguments pass through to pytest (e.g. ``-k prefix`` to run one
benchmark, ``-s`` to see the printed tables).  Exits with pytest's status;
the trajectory file is written even when a floor assertion fails, covering
whichever benchmarks completed.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Every floor-pinned benchmark id → (metric, floor); keep in sync with the
# record_bench calls under benchmarks/.  A fresh checkout has no
# BENCH_trajectory.json, and a filtered (``-k``) or floor-failing run
# records only a subset of rows — seeding the missing ids with a null
# value makes every run emit the complete floor set, so trajectory
# consumers see "not measured" instead of a silently absent floor.
KNOWN_FLOORS: dict[str, tuple[str, float]] = {
    "decode_throughput::continuous_batching_speedup": ("speedup_x", 3.0),
    "mpu_speed::batched_vs_scalar": ("speedup_x", 10.0),
    "prefix_cache::ttft_ratio": ("ttft_ratio_x", 2.0),
    "quantize_speed::vectorized_vs_scalar": ("speedup_x", 5.0),
    "serve_throughput::batched_vs_sequential": ("speedup_x", 1.3),
    # (1 / 1.15) * 0.95 — see benchmarks/test_telemetry_overhead.py.
    "telemetry_overhead::enabled_step_ratio": ("ratio", 0.8260869565217391),
}


def seed_known_floors(rows: list[dict]) -> list[dict]:
    """Append a null-valued row for every known floor the run didn't record."""
    present = {row["id"] for row in rows}
    for bench_id, (metric, floor) in KNOWN_FLOORS.items():
        if bench_id not in present:
            rows.append({"id": bench_id, "metric": metric, "value": None,
                         "floor": floor, "unit": None})
    return rows


def _git_sha() -> str | None:
    """Current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp_rows(rows: list[dict], *, sha: str | None,
               timestamp: str) -> list[dict]:
    """Attach provenance to trajectory rows, backfill-safe.

    Older trajectory files (and rows written by ``record_bench`` itself,
    which runs inside the timed pytest process and deliberately never
    reads the wall clock) lack the ``git_sha``/``recorded_at`` keys;
    ``setdefault`` fills them without clobbering rows that already carry a
    stamp from a previous run.
    """
    for row in rows:
        row.setdefault("git_sha", sha)
        row.setdefault("recorded_at", timestamp)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run bench-marked tests and write the perf trajectory")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_trajectory.json"),
                        help="trajectory JSON path (default: repo root)")
    args, pytest_args = parser.parse_known_args(argv)

    out = Path(args.output).resolve()
    env = dict(os.environ)
    env["BENCH_TRAJECTORY"] = str(out)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    status = subprocess.call(
        [sys.executable, "-m", "pytest", "-q", "-m", "bench", *pytest_args],
        cwd=REPO_ROOT, env=env)

    # Stamp provenance here, after pytest exits — the stamper reads the
    # wall clock, which is why it lives in this driver and not in the
    # timed benchmark process.  Floors the run did not record (fresh
    # checkout, -k filter, failed benchmark) are seeded with null values,
    # so the file always exists and lists the full floor set.
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    rows = json.loads(out.read_text()) if out.exists() else []
    rows = stamp_rows(seed_known_floors(rows), sha=_git_sha(),
                      timestamp=stamp)
    out.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"\nwrote {out} ({len(rows)} metrics):")
    for row in rows:
        floor = row.get("floor")
        suffix = "" if floor is None else f"   (floor {floor:g})"
        value = ("     n/a" if row["value"] is None
                 else f"{row['value']:8.2f}")
        print(f"  {row['id']:48s} {row['metric']:>14s} = {value}{suffix}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
