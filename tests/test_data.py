from __future__ import annotations

import json

import pytest

from sketchparse import lf
from sketchparse.data import (
    BadRatios,
    GenConfig,
    MalformedBlock,
    ParseError,
    SpanOutOfRange,
    generate_synthetic,
    load_jsonl,
    load_mspars_text,
    save_jsonl,
    split,
)

BIRTH_RECORD = {
    "question": "what is birth date for chris pine",
    "logical_form": "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )",
    "parameters": [{"surface": "chris_pine", "kind": "entity", "span": [5, 6]}],
    "question_type": "single-relation",
}

BIRTH_BLOCK = """\
<question id=1>\twhat is birth date for chris pine
<logical form id=1>\t( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )
<parameters id=1>\tchris_pine (entity) [5,6]
<question type id=1>\tsingle-relation
"""


class TestJsonl:
    def test_load_single_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(BIRTH_RECORD) + "\n")
        corpus = load_jsonl(path)
        assert len(corpus) == 1
        sample = corpus.samples[0]
        assert sample.params == [lf.ParamAnnotation("chris_pine", "entity", (5, 6))]
        assert sample.sketch_class == "( lambda ?x ( P1 E1 ?x ) )"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_jsonl(path)) == 0

    def test_span_out_of_range(self, tmp_path):
        record = dict(BIRTH_RECORD)
        record["parameters"] = [{"surface": "x", "kind": "entity", "span": [9, 9]}]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SpanOutOfRange):
            load_jsonl(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for line in (
            "{oops",
            "5",
            "null",
            '["a"]',
            '{"question": 5, "logical_form": "( a )"}',
            '{"question": "what is a", "logical_form": 7}',
            '{"logical_form": "( a )"}',
        ):
            path.write_text(json.dumps(BIRTH_RECORD) + "\n" + line + "\n")
            with pytest.raises(ParseError) as err:
                load_jsonl(path)
            assert err.value.line == 2

    def test_surface_span_mismatch_rejected(self, tmp_path):
        record = dict(BIRTH_RECORD)
        record["parameters"] = [{"surface": "chris_pratt", "kind": "entity", "span": [5, 6]}]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SpanOutOfRange):
            load_jsonl(path)

    def test_save_load_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(small_corpus, path)
        reloaded = load_jsonl(path, split=small_corpus.split)
        assert reloaded == small_corpus


class TestTaggedText:
    def test_block_matches_jsonl(self, tmp_path):
        json_path = tmp_path / "one.jsonl"
        json_path.write_text(json.dumps(BIRTH_RECORD) + "\n")
        text_path = tmp_path / "one.txt"
        text_path.write_text(BIRTH_BLOCK)
        assert load_mspars_text(text_path).samples == load_jsonl(json_path).samples

    def test_param_parsing(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text(BIRTH_BLOCK)
        sample = load_mspars_text(path).samples[0]
        param = sample.params[0]
        assert (param.surface, param.kind, param.span) == ("chris_pine", "entity", (5, 6))

    def test_colon_prefixed_blocks(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text(
            "question: what is birth date for chris pine\n"
            "logical form: ( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )\n"
            "parameters: chris_pine (entity) [5,6]\n"
            "question type: single-relation\n"
        )
        assert len(load_mspars_text(path)) == 1

    def test_missing_parameters_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = [l for l in BIRTH_BLOCK.splitlines() if "parameters" not in l]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedBlock) as err:
            load_mspars_text(path)
        assert err.value.block == 0

    def test_multiple_blocks(self, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text(BIRTH_BLOCK + "\n" + BIRTH_BLOCK)
        assert len(load_mspars_text(path)) == 2


class TestGenerator:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = GenConfig(
            classes=("single-relation",),
            entity_vocab=20,
            predicate_vocab=10,
            samples_per_class=100,
            seed=7,
        )
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(generate_synthetic(cfg), a_path)
        save_jsonl(generate_synthetic(cfg), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_all_samples_round_trip(self, small_corpus):
        for sample in small_corpus:
            sketch = lf.extract_sketch(sample.lf, sample.params)
            assert lf.substitute_sketch(sketch).tokens == sample.lf.tokens

    def test_single_relation_sketch_shape(self):
        cfg = GenConfig(classes=("single-relation",), samples_per_class=5, seed=0)
        corpus = generate_synthetic(cfg)
        assert corpus.classes() == ["( lambda ?x ( P1 E1 ?x ) )"]

    def test_eight_default_classes(self, small_corpus):
        assert len(small_corpus.classes()) == 8

    def test_question_pattern_maps_to_one_lf_pattern(self, small_corpus):
        from sketchparse.matchers import sample_pattern_pair

        mapping: dict[tuple, tuple] = {}
        for sample in small_corpus:
            qp, lfp = sample_pattern_pair(sample)
            key = qp.tokens
            assert mapping.setdefault(key, lfp.tokens) == lfp.tokens

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(samples_per_class=0)
        with pytest.raises(ValueError):
            GenConfig(classes=("nope",))


class TestSplit:
    def test_sizes_100(self):
        cfg = GenConfig(
            classes=("single-relation", "aggregation"), samples_per_class=50, seed=3
        )
        corpus = generate_synthetic(cfg)
        train, dev, test = split(corpus, (0.8, 0.1, 0.1), seed=5)
        assert (len(train), len(dev), len(test)) == (80, 10, 10)

    def test_same_seed_same_split(self, small_corpus):
        first = split(small_corpus, (0.8, 0.1, 0.1), seed=9)
        second = split(small_corpus, (0.8, 0.1, 0.1), seed=9)
        for a, b in zip(first, second):
            assert a.samples == b.samples

    def test_stratified_within_one_sample(self):
        cfg = GenConfig(
            classes=("single-relation", "aggregation", "yesno"),
            samples_per_class=41,
            seed=3,
        )
        corpus = generate_synthetic(cfg)
        parts = split(corpus, (0.8, 0.1, 0.1), seed=5)
        for part, ratio in zip(parts, (0.8, 0.1, 0.1)):
            by_class: dict[str, int] = {}
            for sample in part:
                by_class[sample.sketch_class] = by_class.get(sample.sketch_class, 0) + 1
            for count in by_class.values():
                assert abs(count - ratio * 41) <= 1

    def test_bad_ratios(self, small_corpus):
        with pytest.raises(BadRatios):
            split(small_corpus, (0.5, 0.2, 0.2), seed=0)

    def test_partition_is_exact(self, small_corpus):
        train, dev, test = split(small_corpus, (0.8, 0.1, 0.1), seed=2)
        assert len(train) + len(dev) + len(test) == len(small_corpus)
        questions = sorted(s.question for part in (train, dev, test) for s in part)
        assert questions == sorted(s.question for s in small_corpus)
