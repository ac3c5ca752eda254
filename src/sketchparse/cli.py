"""Command-line interface: gen-data, train, predict, evaluate and inspect.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import data, lf, pipeline
from .data import CorpusError, GenConfig
from .genscore import EmptyCandidate
from .learn import UnsupportedCheckpoint
from .matchers import sample_pattern_pair
from .multitask import MultiTaskConfig

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sketchparse", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="write a synthetic train/dev/test corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--per-class", type=int, default=100)
    gen.add_argument(
        "--classes",
        default=",".join(data.DEFAULT_CLASSES),
        help="comma-separated class names",
    )
    gen.add_argument("--entities", type=int, default=50, help="entity vocabulary size")
    gen.add_argument("--predicates", type=int, default=16, help="predicate vocabulary size")

    train = sub.add_parser("train", help="train a full system")
    train.add_argument("--train", required=True, dest="train_file")
    train.add_argument("--dev", required=True, dest="dev_file")
    train.add_argument("--out", required=True, help="model directory")
    train.add_argument(
        "--epochs", type=int, default=10,
        help="most multitask epochs; stops once dev joint accuracy is 1.0",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--loss-weights", default="1,2", help="sketch,labeling loss weights")

    pred = sub.add_parser("predict", help="predict logical forms for JSONL questions")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="evaluate a model and write a JSON report")
    ev.add_argument("--model", required=True)
    ev.add_argument("--test", required=True)
    ev.add_argument("--hard", default=None)
    ev.add_argument("--report", required=True)

    ins = sub.add_parser("inspect", help="print sketch, patterns and template of one sample")
    ins.add_argument("--sample", required=True, help="JSON object with the sample fields")
    return parser


def _cmd_gen_data(args) -> int:
    classes = tuple(c.strip() for c in args.classes.split(",") if c.strip())
    cfg = GenConfig(
        classes=classes,
        entity_vocab=args.entities,
        predicate_vocab=args.predicates,
        samples_per_class=args.per_class,
        seed=args.seed,
    )
    corpus = data.generate_synthetic(cfg)
    train, dev, test = data.split(corpus, (0.8, 0.1, 0.1), seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for part in (train, dev, test):
        data.save_jsonl(part, out / f"{part.split}.jsonl")
    print(
        f"wrote {len(train)}/{len(dev)}/{len(test)} samples to {out}/"
        "{train,dev,test}.jsonl"
    )
    return 0


def _cmd_train(args) -> int:
    weights = tuple(float(x) for x in args.loss_weights.split(","))
    if len(weights) != 2:
        raise ValueError("--loss-weights expects two comma-separated numbers")
    train_corpus = data.load_jsonl(args.train_file, split="train")
    dev_corpus = data.load_jsonl(args.dev_file, split="dev")
    if not train_corpus.samples:
        raise data.EmptyCorpus("training file contains no samples")
    cfg = pipeline.SystemConfig(
        multitask=MultiTaskConfig(
            hidden=args.hidden,
            epochs=args.epochs,
            seed=args.seed,
            loss_weights=weights,
        ),
        matcher=dataclasses.replace(
            pipeline.MatcherConfig(), hidden=args.hidden, seed=args.seed
        ),
        cooccurrence=dataclasses.replace(pipeline.CooccurrenceConfig(), seed=args.seed),
    )
    system = pipeline.train_system(train_corpus, dev_corpus, cfg)
    pipeline.save_system(system, args.out)
    print(f"model written to {args.out} (fusion weights {system.weights.as_dict()})")
    return 0


def _cmd_predict(args) -> int:
    system = pipeline.load_system(args.model)
    written = 0
    with open(args.input, encoding="utf-8") as src, open(
        args.out, "w", encoding="utf-8"
    ) as dst:
        for lineno, line in enumerate(src, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise data.ParseError(lineno, f"bad JSON ({exc.msg})") from None
            if "question" not in record:
                raise data.ParseError(lineno, "record lacks a question field")
            detail = pipeline.predict_detailed(record["question"], system)
            record.update(detail)
            dst.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            dst.write("\n")
            written += 1
    print(f"wrote {written} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    system = pipeline.load_system(args.model)
    test_corpus = data.load_jsonl(args.test, split="test")
    report = pipeline.evaluate(test_corpus, system)
    if args.hard:
        hard_corpus = data.load_jsonl(args.hard, split="hard")
        report["hard"] = pipeline.evaluate(hard_corpus, system)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    overall = report.get("overall", {})
    print(
        "err_s={err_s:.4f} err_e={err_e:.4f} err_m={err_m:.4f} err_l={err_l:.4f}".format(
            **{k: overall.get(k, float("nan")) for k in ("err_s", "err_e", "err_m", "err_l")}
        )
    )
    return 0


def _cmd_inspect(args) -> int:
    record = json.loads(args.sample)
    sample = data.make_sample(
        question=record["question"],
        logical_form=record["logical_form"],
        params=data._params_from_json(record.get("parameters")),
        question_type=record.get("question_type", ""),
    )
    qp, lfp = sample_pattern_pair(sample)
    template = lf.derive_template(sample.lf, sample.params, sample.entity_order)
    print(f"sketch:           {sample.sketch_class}")
    print(f"question pattern: {qp.text}")
    print(f"lf pattern:       {lfp.text}")
    print(f"template:         {' '.join(template.tokens)}  (arity {template.entity_arity})")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except (CorpusError, lf.LfError, EmptyCandidate, UnsupportedCheckpoint) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except json.JSONDecodeError as exc:
        print(f"data error: bad JSON ({exc.msg})", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
