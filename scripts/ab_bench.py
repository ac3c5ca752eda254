#!/usr/bin/env python3
"""Interleaved A/B benchmark of two checkouts of this repository.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        [--seed S --seconds S]

Runs each checkout's own ``bench/run.py`` in turn, N pairs, swapping which
side runs first in each pair so that drift on the host falls on both sides
alike. From each run's last JSON line it prints, for every end-to-end metric
of the change's BENCHMARK.json: both medians, both interquartile ranges, the
ratio change/parent of the medians and the number of pairs the change won.
Exits 1 if any run is not ``correct`` or has ``failed`` > 0.
"""

from __future__ import annotations

import argparse
import json
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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "bench" / "run.py").is_file():
            parser.error(f"{getattr(args, side)} has no bench/run.py")
    return args


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``; its last JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise SystemExit(
            f"ab_bench: {checkout}: bench/run.py exited {proc.returncode} with no JSON line\n"
            + proc.stderr[-2000:]
        )
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """Per end-to-end metric: both medians and IQRs, the ratio change/parent
    and the pairs in which the change was strictly better."""
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
            result = run(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(result)
            if not result["correct"] or result["failed"] > 0:
                bad.append(f"pair {pair} {side}: correct={result['correct']} "
                           f"failed={result['failed']}")
            print(f"pair {pair + 1}/{args.pairs} {side}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    rows = summarise(spec["end_to_end"], runs)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          "medians [IQR], ratio change/parent, pairs the change won")
    for r in rows:
        print(f"  {r['name']:<14} {r['parent_median']:>11.5g} [{r['parent_iqr']:.3g}]"
              f" -> {r['change_median']:>11.5g} [{r['change_iqr']:.3g}] {r['unit']:<5}"
              f" ratio {r['ratio']:.3f}  won {r['wins']}/{r['pairs']} ({r['better']} is better)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rows": rows}))
    for line in bad:
        print(f"ab_bench: run not correct: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
