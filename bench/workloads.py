"""The benchmark's workloads: seeded synthetic corpora shaped to stress
different layers of the parser.

Each workload is generated from a seed, split into train/dev/test, and parsed
as the stream dev + test. Samples are tracked by their index in the generated
corpus, because the generator can emit the same question string twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from sketchparse import data

# The split seed stays fixed; the workload seed varies the generated corpus.
SPLIT_SEED = 2
DEFAULT_SEED = 11


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    classes: tuple[str, ...]
    predicates: int
    entities: int
    per_class: int
    ratios: tuple[float, float, float]


# Why each workload exists is recorded beside its name in BENCHMARK.json.
SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="standard",
            classes=data.DEFAULT_CLASSES,
            predicates=40,
            entities=200,
            per_class=625,
            ratios=(0.8, 0.1, 0.1),
        ),
        WorkloadSpec(
            name="wide_pool",
            classes=("single-relation",),
            predicates=44,
            entities=200,
            per_class=2500,
            ratios=(0.6, 0.1, 0.3),
        ),
        WorkloadSpec(
            name="long_question",
            classes=("multi-turn-answer", "cvt"),
            predicates=10,
            entities=200,
            per_class=1250,
            ratios=(0.6, 0.1, 0.3),
        ),
    )
}


@dataclass
class Workload:
    spec: WorkloadSpec
    seed: int
    train: data.Corpus
    dev: data.Corpus
    stream: list[data.Sample]
    train_indices: list[int]
    stream_indices: list[int]


def build(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """Generate the workload's corpus from ``seed`` and split it."""
    spec = SPECS[name]
    corpus = data.generate_synthetic(
        data.GenConfig(
            classes=spec.classes,
            entity_vocab=spec.entities,
            predicate_vocab=spec.predicates,
            samples_per_class=spec.per_class,
            seed=seed,
        )
    )
    train, dev, test = data.split(corpus, spec.ratios, seed=SPLIT_SEED)
    index_of = {id(sample): i for i, sample in enumerate(corpus.samples)}
    stream = dev.samples + test.samples
    return Workload(
        spec=spec,
        seed=seed,
        train=train,
        dev=dev,
        stream=stream,
        train_indices=[index_of[id(s)] for s in train.samples],
        stream_indices=[index_of[id(s)] for s in stream],
    )
