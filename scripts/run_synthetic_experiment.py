#!/usr/bin/env python3
"""Full synthetic experiment: generate a corpus, train every stage, evaluate.

Prints per-class and overall error rates plus the fusion ablation (pattern-only
baseline vs tuned weights). Use --quick for a desk-sized run, the defaults
reproduce the 4000/500/500 setup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import time
from pathlib import Path

from sketchparse import pipeline
from sketchparse.data import DEFAULT_CLASSES, GenConfig, generate_synthetic, split
from sketchparse.pipeline import FusionWeights


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=625)
    parser.add_argument("--entities", type=int, default=200)
    parser.add_argument("--predicates", type=int, default=40)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--split-seed", type=int, default=2)
    parser.add_argument("--quick", action="store_true", help="60 samples per class")
    parser.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    parser.add_argument("--model-dir", type=Path, default=None, help="persist the trained system")
    return parser.parse_args()


def short_class(sketch: str, width: int = 44) -> str:
    return sketch if len(sketch) <= width else sketch[: width - 3] + "..."


def main() -> None:
    args = parse_args()
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    per_class = 60 if args.quick else args.per_class

    cfg = GenConfig(
        classes=DEFAULT_CLASSES,
        entity_vocab=args.entities,
        predicate_vocab=args.predicates,
        samples_per_class=per_class,
        seed=args.seed,
    )
    corpus = generate_synthetic(cfg)
    train, dev, test = split(corpus, (0.8, 0.1, 0.1), seed=args.split_seed)
    print(f"corpus: {len(train)} train / {len(dev)} dev / {len(test)} test")

    started = time.perf_counter()
    system = pipeline.train_system(train, dev, pipeline.SystemConfig())
    train_time = time.perf_counter() - started
    print(f"training finished in {train_time:.1f}s, fusion weights {system.weights.as_dict()}")

    report = pipeline.evaluate(test, system)
    print(f"\n{'class':<46} {'n':>4} {'Err_s':>7} {'Err_e':>7} {'Err_m':>7} {'Err_l':>7}")
    for cls, row in sorted(report["per_class"].items()):
        print(
            f"{short_class(cls):<46} {row['count']:>4}"
            f" {row['err_s']:>7.4f} {row['err_e']:>7.4f} {row['err_m']:>7.4f} {row['err_l']:>7.4f}"
        )
    overall = report["overall"]
    print(
        f"{'overall':<46} {report['counts']['samples']:>4}"
        f" {overall['err_s']:>7.4f} {overall['err_e']:>7.4f}"
        f" {overall['err_m']:>7.4f} {overall['err_l']:>7.4f}"
    )
    print(f"\npattern coverage:      {report['pattern_coverage']:.4f}")
    print(f"gold candidate rate:   {report['gold_candidate_rate']:.4f}")
    print(f"error taxonomy:        {report['taxonomy']}")

    def dev_accuracy(weights: FusionWeights) -> float:
        counts = pipeline.evaluate(dev, dataclasses.replace(system, weights=weights))["counts"]
        return counts["exact_match"] / counts["samples"]

    baseline = dev_accuracy(pipeline.PATTERN_ONLY)
    tuned = dev_accuracy(system.weights)
    print(f"dev accuracy, pattern-only baseline: {baseline:.4f}")
    print(f"dev accuracy, tuned fusion weights:  {tuned:.4f}")

    if args.report:
        args.report.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.report}")
    if args.model_dir:
        pipeline.save_system(system, args.model_dir)
        print(f"model written to {args.model_dir}")


if __name__ == "__main__":
    main()
