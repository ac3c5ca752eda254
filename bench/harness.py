"""Measurement for one benchmark run: training, set-ups and parse passes on a
workload, the checks against gold, and the traced run's per-layer metrics.

Imported by run.py only after it has pinned BLAS threads, because importing
this module imports numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from sketchparse import genscore, learn, matchers, multitask, pipeline

import workloads
from stats import percentile, tail_percentile
from tracer import Tracer

SETUPS_PER_PASS = 10
MIN_PASSES = 5
# Every RELOAD_CHECK_STRIDE-th question is parsed by both the trained and the
# reloaded system, whose outputs must be equal.
RELOAD_CHECK_STRIDE = 50
# The repository's accuracy gate; below it a run counts as incorrect.
MIN_EXACT_MATCH = 0.95


def parse_pass(workload: workloads.Workload, system, tracer: Tracer | None = None) -> dict:
    """Parse every stream question once, in a closed loop; latencies and
    checks against gold."""
    latencies, predictions = [], []
    failed = exact = gold_in_pool = no_candidates = candidates = 0
    first_error = None
    started = time.perf_counter()
    for i, sample in enumerate(workload.stream):
        if tracer is not None:
            tracer.question = i
        t0 = time.perf_counter()
        try:
            out = pipeline.predict_detailed(sample.question, system)
        except Exception:  # a raising question is counted, not fatal
            out = None
            first_error = first_error or traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        if out is None or "diagnostic" in out:
            failed += 1
            no_candidates += out is not None
            predictions.append(None)
            continue
        gold = sample.lf.tokens
        predictions.append(out["predicted_logical_form"])
        exact += tuple(out["predicted_logical_form"].split()) == gold
        pool = [tuple(c["logical_form"].split()) for c in out["candidates"]]
        gold_in_pool += gold in pool
        candidates += len(pool)
    elapsed = time.perf_counter() - started
    if first_error:
        print(first_error, file=sys.stderr)
    n = len(workload.stream)
    return {
        "seconds": elapsed,
        "latencies": latencies,
        "exact_match": exact / n,
        "failed": failed,
        "gold_in_pool_frac": gold_in_pool / n,
        "no_candidates_frac": no_candidates / n,
        "candidates_per_q": candidates / n,
        "predictions": predictions,
    }


def _outcome(system, question: str):
    try:
        return pipeline.predict_detailed(question, system)
    except Exception as exc:  # compared, not fatal
        return f"raised {type(exc).__name__}: {exc}"


def reload_matches(workload: workloads.Workload, trained, loaded) -> bool:
    """The reloaded checkpoint answers a fixed sample exactly as the trained system."""
    return all(
        _outcome(trained, s.question) == _outcome(loaded, s.question)
        for s in workload.stream[::RELOAD_CHECK_STRIDE]
    )


def train(workload: workloads.Workload):
    """Train the system; returns it with the CPU and the wall seconds taken.

    Training is single-threaded and does no I/O, so on an idle machine its CPU
    time is its wall time. CPU time leaves out the time other processes on a
    shared host hold the processor, which would otherwise swamp the program's
    own cost.
    """
    cpu0, wall0 = time.process_time(), time.perf_counter()
    trained = pipeline.train_system(workload.train, workload.dev)
    return trained, time.process_time() - cpu0, time.perf_counter() - wall0


def measure(workload: workloads.Workload, seconds: float, model_dir: Path) -> dict:
    """Untraced run: train once, then set-ups and parse passes for ``seconds``."""
    warm_question = workload.train.samples[0].question
    trained, train_s, train_wall_s = train(workload)
    pipeline.save_system(trained, model_dir)

    # Set-ups are spread over the run, a batch before each pass, so that one
    # burst of load from other processes cannot cover all of them. The
    # previous system is freed before the clock starts, as a fresh process
    # would not pay for it.
    setups, passes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_PASS):
            loaded = None
            t0 = time.perf_counter()
            loaded = pipeline.load_system(model_dir)
            pipeline.predict_detailed(warm_question, loaded)
            setups.append(time.perf_counter() - t0)
        passes.append(parse_pass(workload, loaded))
    return {
        "train_s": train_s,
        "train_wall_s": train_wall_s,
        "setups": setups,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reload_ok": reload_matches(workload, trained, loaded),
    }


def traced(workload: workloads.Workload, model_dir: Path) -> tuple[Tracer, float, dict]:
    """Traced run: train, save, one set-up and one parse pass, every layer wrapped."""
    with Tracer() as tracer:
        install(tracer)
        tracer.phase = "train"
        trained, train_s, _ = train(workload)
        tracer.phase = "setup"
        pipeline.save_system(trained, model_dir)
        loaded = pipeline.load_system(model_dir)
        pipeline.predict_detailed(workload.train.samples[0].question, loaded)
        tracer.phase = "parse"
        one_pass = parse_pass(workload, loaded, tracer)
    return tracer, train_s, one_pass


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions. The benchmark calls pipeline.*
    module attributes, so the wrappers are the functions it reaches; the
    re-exports in sketchparse/__init__.py keep the unwrapped ones."""
    layers = (
        (pipeline, ("train_system", "_dev_packs", "tune_weights", "save_system",
                    "load_system", "predict_detailed", "generate_candidates_from", "rank")),
        (multitask, ("train_multitask", "sample_grads", "crf_nll_grad", "dev_metrics",
                     "classify_sketch", "predict_spans")),
        (matchers, ("build_pattern_index", "train_matcher_ensemble", "pair_loss_grads",
                    "ranking_resample", "build_cooccurrence", "score_candidate_pe")),
        (genscore, ("fit_genmodel", "gen_scores", "seq_loss")),
        (learn, ("step",)),
    )
    hooks = {
        "multitask.crf_nll_grad": lambda a, k, r: {"multitask.crf_tokens": a[0].shape[1]},
        "matchers.pair_loss_grads": lambda a, k, r: {"matchers.pairs_trained": len(a[1])},
        "matchers.ranking_resample": lambda a, k, r: {"matchers.resample_kept": len(r)},
        "pipeline.generate_candidates_from": lambda a, k, r: {"pipeline.candidates": len(r[0])},
    }
    for module, attrs in layers:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            name = f"{short}.{attr}"
            tracer.wrap(module, attr, name, hook=hooks.get(name))
    tracer.wrap(matchers.MatcherEnsemble, "score", "matchers.ensemble_score")
    # Hot leaf calls (~15 to ~1700 per question): counted, not spanned.
    tracer.wrap(matchers, "score_pair", "matchers.score_pair", span=False)
    tracer.wrap(genscore.ClassStats, "prob", "genscore.prob", span=False)


def layer_metrics(tracer: Tracer, one_pass: dict, n_questions: int) -> dict[str, float]:
    """Per-layer metrics named <phase>.<module>.<what> from one traced run."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def total(phase, name):
        return totals[phase, name].total_s

    def own(phase, name):
        return totals[phase, name].self_s

    def per_q(name):
        return counts["parse", name] / n_questions

    scored = counts["train", "matchers.score_pair"]
    return {
        "train.multitask.train_multitask_s": total("train", "multitask.train_multitask"),
        "train.multitask.crf_nll_grad_s": total("train", "multitask.crf_nll_grad"),
        "train.multitask.crf_nll_grad_calls": counts["train", "multitask.crf_nll_grad"],
        "train.multitask.crf_tokens": counts["train", "multitask.crf_tokens"],
        "train.multitask.sample_grads_s": own("train", "multitask.sample_grads"),
        "train.multitask.dev_metrics_s": total("train", "multitask.dev_metrics"),
        "parse.multitask.classify_sketch_s": total("parse", "multitask.classify_sketch"),
        "parse.multitask.predict_spans_s": total("parse", "multitask.predict_spans"),
        "parse.multitask.classify_calls_per_q": per_q("multitask.classify_sketch"),
        "train.matchers.train_matcher_ensemble_s": total("train", "matchers.train_matcher_ensemble"),
        "train.matchers.pair_loss_grads_s": total("train", "matchers.pair_loss_grads"),
        "train.matchers.pairs_trained": counts["train", "matchers.pairs_trained"],
        "train.matchers.ranking_resample_s": total("train", "matchers.ranking_resample"),
        "train.matchers.resample_scored": scored,
        "train.matchers.resample_kept_frac": counts["train", "matchers.resample_kept"] / scored,
        "train.matchers.build_pattern_index_s": total("train", "matchers.build_pattern_index"),
        "train.matchers.build_cooccurrence_s": total("train", "matchers.build_cooccurrence"),
        "parse.matchers.ensemble_score_s": total("parse", "matchers.ensemble_score"),
        "parse.matchers.score_pair_calls_per_q": per_q("matchers.score_pair"),
        "parse.matchers.score_candidate_pe_s": total("parse", "matchers.score_candidate_pe"),
        "train.genscore.fit_genmodel_s": total("train", "genscore.fit_genmodel"),
        "parse.genscore.gen_scores_s": total("parse", "genscore.gen_scores"),
        "parse.genscore.seq_loss_calls_per_q": per_q("genscore.seq_loss"),
        "parse.genscore.prob_calls_per_q": per_q("genscore.prob"),
        "train.learn.step_s": total("train", "learn.step"),
        "train.learn.step_calls": counts["train", "learn.step"],
        "train.pipeline.dev_packs_s": total("train", "pipeline._dev_packs"),
        "train.pipeline.tune_weights_s": total("train", "pipeline.tune_weights"),
        "train.pipeline.train_system_self_s": own("train", "pipeline.train_system"),
        "setup.pipeline.save_system_s": total("setup", "pipeline.save_system"),
        "setup.pipeline.load_system_s": total("setup", "pipeline.load_system"),
        "parse.pipeline.generate_candidates_from_s": total("parse", "pipeline.generate_candidates_from"),
        "parse.pipeline.candidates_per_q": per_q("pipeline.candidates"),
        "parse.pipeline.rank_s": total("parse", "pipeline.rank"),
        "parse.pipeline.predict_detailed_self_s": own("parse", "pipeline.predict_detailed"),
        "parse.pipeline.gold_in_pool_frac": one_pass["gold_in_pool_frac"],
        "parse.pipeline.no_candidates_frac": one_pass["no_candidates_frac"],
    }


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, blas_pin: dict) -> int:
    """One benchmark run; prints the report and returns the exit code.
    ``blas_pin`` describes how run.py pinned BLAS threads."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if name not in workloads.SPECS:
        raise SystemExit(f"bench: unknown workload {name!r}")
    workload = workloads.build(name, seed)
    n_questions = len(workload.stream)
    tail = tail_percentile(n_questions)
    if tail is None or tail < 99.0:
        raise SystemExit(
            f"bench: a stream of {n_questions} questions supports p{tail}, "
            "not the parse_p99_ms the benchmark reports"
        )

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    model_dir = out_dir / f"model-{tag}-{os.getpid()}"
    try:
        untraced = measure(workload, seconds, model_dir)
        if trace:
            shutil.rmtree(model_dir)
            tracer, traced_train_s, traced_pass = traced(workload, model_dir)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    passes = untraced["passes"]
    attempted = n_questions * len(passes)
    failed = sum(p["failed"] for p in passes)
    exact_match = min(p["exact_match"] for p in passes)
    # A question's latency is its fastest pass: bursts from other processes on
    # a shared machine slow some passes, never the program's own work.
    latencies = [min(per_pass) for per_pass in zip(*(p["latencies"] for p in passes))]
    end_to_end = {
        "train_s": untraced["train_s"],
        "setup_s": statistics.median(untraced["setups"]),
        "parse_p50_ms": percentile(latencies, 50.0) * 1e3,
        "parse_p99_ms": percentile(latencies, 99.0) * 1e3,
        "parse_qps": len(latencies) / sum(latencies),
        "exact_match": exact_match,
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    properties = {
        "train_questions": len(workload.train),
        "parse_questions": n_questions,
        "passes": len(passes),
        "latency_samples": len(latencies),
        "setup_samples": len(untraced["setups"]),
        "train_wall_s": untraced["train_wall_s"],
        "mean_question_tokens": statistics.fmean(len(s.question_tokens) for s in workload.stream),
        "candidates_per_question": statistics.median(p["candidates_per_q"] for p in passes),
    }
    checks = {
        "reload_matches_trained": untraced["reload_ok"],
        # CPU time above wall time would mean training ran on several threads,
        # and train_s would no longer be the time a user waits.
        "train_single_threaded": untraced["train_s"] <= untraced["train_wall_s"] * 1.01,
        "passes_agree": all(p["predictions"] == passes[0]["predictions"] for p in passes),
        f"exact_match>={MIN_EXACT_MATCH}": exact_match >= MIN_EXACT_MATCH,
    }
    per_layer = None
    if trace:
        pass_s = statistics.median(p["seconds"] for p in passes)
        properties["trace_overhead_train"] = traced_train_s / untraced["train_s"] - 1.0
        properties["trace_overhead_parse"] = traced_pass["seconds"] / pass_s - 1.0
        checks["traced_pass_agrees"] = traced_pass["predictions"] == passes[0]["predictions"]
        per_layer = layer_metrics(tracer, traced_pass, n_questions)
        tracer.save(out_dir / f"spans-{tag}.npz")

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            **blas_pin,
        },
        "properties": properties,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {name} seed {seed}")
    for section in ("environment", "properties", "checks"):
        print(f"{section}: " + ", ".join(f"{k}={v}" for k, v in report[section].items()))
    print_table(spec["end_to_end"], end_to_end)
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'ratio':<6} lower is better"
          f" ({failed} of {attempted} attempted)")
    listed, metrics = spec["end_to_end"], end_to_end
    if trace:
        listed, metrics = spec["per_layer"], per_layer
        print_table(listed, metrics)
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


def print_table(listed: list[dict], values: dict[str, float]) -> None:
    for m in listed:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} {m['better']} is better")
