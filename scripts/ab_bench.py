#!/usr/bin/env python3
"""Interleaved A/B benchmark of two checkouts of this repository.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        [--seed S --seconds S --trace 0|1]

Runs each checkout's own ``bench/run.py`` in turn, N pairs, swapping which
side runs first in each pair so that drift on the host falls on both sides
alike. From each run's last JSON line it prints, for every end-to-end metric
of the change's BENCHMARK.json: both medians, both interquartile ranges, the
ratio change/parent of the medians and the number of pairs the change won.
Beside ``peak_rss_mb`` it prints each side's median pass count (attempted
questions over the stream size), since the bench's peak RSS grows with the
passes that fit into ``--seconds``.
With ``--trace 1`` each run is traced and the same summary covers the
``per_layer`` metrics instead, so a per-layer shift is read over N traced
runs a side rather than one. Exits 1 if any run is not ``correct`` or has
``failed`` > 0.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "bench" / "run.py").is_file():
            parser.error(f"{getattr(args, side)} has no bench/run.py")
    return args


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last JSON line, plus
    ``parse_questions`` (the stream size) from its ``properties:`` line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise SystemExit(
            f"ab_bench: {checkout}: bench/run.py exited {proc.returncode} with no JSON line\n"
            + proc.stderr[-2000:]
        )
    result = json.loads(lines[-1])
    found = re.search(r"^properties:.*\bparse_questions=(\d+)", proc.stdout, re.MULTILINE)
    result["parse_questions"] = int(found.group(1))
    return result


def passes(result: dict) -> float:
    """The parse passes a run made: attempted questions over the stream
    size. The bench's peak_rss_mb grows with them."""
    return result["attempted"] / result["parse_questions"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """Per metric: both medians and IQRs, the ratio change/parent and the
    pairs in which the change was strictly better."""
    rows = []
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = -1.0 if m["better"] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        medians = {side: statistics.median(values[side]) for side in SIDES}
        rows.append({
            "name": name,
            "unit": m["unit"],
            "better": m["better"],
            **{f"{side}_median": medians[side] for side in SIDES},
            **{f"{side}_iqr": iqr(values[side]) for side in SIDES},
            "ratio": medians["change"] / medians["parent"] if medians["parent"] else float("nan"),
            "wins": wins,
            "pairs": len(values["parent"]),
        })
    return rows


def main(argv: list[str] | None = None, run: Callable[..., dict] = run_bench) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    bad = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run(getattr(args, side), args.workload, args.seed, args.seconds, args.trace)
            runs[side].append(result)
            if not result["correct"] or result["failed"] > 0:
                bad.append(f"pair {pair} {side}: correct={result['correct']} "
                           f"failed={result['failed']}")
            print(f"pair {pair + 1}/{args.pairs} {side}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    rows = summarise(spec["per_layer" if args.trace else "end_to_end"], runs)
    median_passes = {side: statistics.median(map(passes, runs[side])) for side in SIDES}
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, trace {args.trace}, "
          "medians [IQR], ratio change/parent, pairs the change won")
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        line = (f"  {r['name']:<{width}} {r['parent_median']:>11.5g} [{r['parent_iqr']:.3g}]"
                f" -> {r['change_median']:>11.5g} [{r['change_iqr']:.3g}] {r['unit']:<5}"
                f" ratio {r['ratio']:.3f}  won {r['wins']}/{r['pairs']} ({r['better']} is better)")
        if r["name"] == "peak_rss_mb":
            line += (f"  passes {median_passes['parent']:.3g} -> {median_passes['change']:.3g}"
                     " (median attempted / stream size)")
        print(line)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": median_passes, "rows": rows}))
    for line in bad:
        print(f"ab_bench: run not correct: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
