"""Benchmark of the sketchparse library, driven from outside through the
``sketchparse.pipeline`` module attributes.

    python3 bench/run.py --workload standard --seed 11 --seconds 10 --trace 0

Run from the repository root. One run generates the workload's corpus from
``--seed``, then times ``train_system`` by CPU time and, after
``save_system``, passes over the parse stream (dev + test), each preceded by
harness.SETUPS_PER_PASS timed set-ups (``load_system`` plus a first
``predict_detailed``). The parse loop is closed: one caller, one thread, BLAS
pinned to one thread, the next question sent when the previous one returns.
Each pass runs on a freshly loaded system and parses every held-out question
exactly once; passes repeat until ``--seconds`` have passed (at least
harness.MIN_PASSES). A question's latency is the fastest of its passes, and
the parse metrics are computed over those per-question latencies.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the same
untraced run, then a traced one that wraps the library's layers (see
``harness.install``), and prints the per-layer metrics with the tracing
overhead. Metric names, units and directions are in BENCHMARK.json. Every
output is checked against gold. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
report and, when traced, every span are written under ``.bench_out/``.

End-to-end metrics and what a user waits for:
  train_s       CPU time of train_system: what a researcher iterating waits for
                on an idle machine (single-threaded, no I/O; see harness.train)
  setup_s       saved checkpoint to first answered question, median of set-ups
  parse_p50_ms  median per-question latency of predict_detailed
  parse_p99_ms  the highest percentile the 1000-question stream supports
  parse_qps     questions completed per second of parsing: one closed-loop
                caller, so the reciprocal of the mean latency
  exact_match   share of questions whose logical form equals gold, by token
  peak_rss_mb   peak resident memory of the whole run
``failed_frac`` (questions that raised or returned a diagnostic) is reported
as ``failed`` of ``attempted`` in the JSON line, because it is 0 when the
parser is healthy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> dict:
    """Pin BLAS to one thread. The pin holds only if numpy was not imported
    yet, which the returned record states."""
    pinned_before_numpy = "numpy" not in sys.modules
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"blas_threads": 1, "blas_pinned_before_numpy": pinned_before_numpy}


def use_library_source() -> None:
    """Import sketchparse from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "sketchparse" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sketchparse sources under {src}")
    sys.path.insert(0, str(src))
    import sketchparse

    if not Path(sketchparse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: sketchparse imported from {sketchparse.__file__}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas_pin = pin_blas_threads()
    use_library_source()
    import harness  # imports numpy, so only after the pin

    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), blas_pin)


if __name__ == "__main__":
    sys.exit(main())
