from __future__ import annotations

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sketchparse import learn, lf, multitask, pipeline
from sketchparse.data import EmptyCorpus
from sketchparse.genscore import split_logical_form
from sketchparse.matchers import MatcherConfig, PatternEntry, PatternIndex, build_pattern_index
from sketchparse.multitask import MultiTaskConfig
from sketchparse.pipeline import (
    Candidate,
    FusionWeights,
    NoCandidates,
    SampleOutcome,
    ScoredCandidate,
    SystemConfig,
    analyze_sample,
    assign_spans,
    class_slot_counts,
    compute_metrics,
    evaluate,
    generate_candidates_from,
    grid_points,
    load_system,
    parse,
    predict,
    predict_detailed,
    rank,
    save_system,
    score_components,
    train_system,
    tune_weights,
)
from tests import oracles

SINGLE_RELATION = "( lambda ?x ( P1 E1 ?x ) )"
BIRTH_TEMPLATE = lf.LfTemplate(
    tuple("( lambda ?x ( mso:people.person.date_of_birth entity1 ?x ) )".split()), 1
)
BIRTH_PATTERN = lf.LfPattern(tuple("people person date of birth entity1 ?x".split()))


def single_relation_index() -> PatternIndex:
    index = PatternIndex()
    index.by_class[SINGLE_RELATION] = [
        PatternEntry(pattern=BIRTH_PATTERN, template=BIRTH_TEMPLATE, freq=3),
        PatternEntry(
            pattern=lf.LfPattern(tuple("people person spouse entity1 ?x".split())),
            template=lf.LfTemplate(
                tuple("( lambda ?x ( mso:people.person.spouse entity1 ?x ) )".split()), 1
            ),
            freq=1,
        ),
    ]
    return index


SUPERLATIVE = "( argmax ?x V ( and ( isa ?x T ) ( P1 ?x ?y ) ) )"


def superlative_index() -> PatternIndex:
    index = PatternIndex()
    index.by_class[SUPERLATIVE] = [
        PatternEntry(
            pattern=lf.LfPattern(tuple("argmax 5 isa book a b".split())),
            template=lf.LfTemplate(
                tuple("( argmax ?x 5 ( and ( isa ?x book ) ( mso:a.b ?x ?y ) ) )".split()), 0
            ),
        )
    ]
    return index


class TestSlotCounts:
    def test_single_relation(self):
        assert class_slot_counts(SINGLE_RELATION) == (1, 0, 0)

    def test_two_entities(self):
        assert class_slot_counts("( P1 E1 E2 )") == (2, 0, 0)

    def test_value_and_type(self):
        cls = "( argmax ?x V ( and ( isa ?x T ) ( P1 ?x ?y ) ) )"
        assert class_slot_counts(cls) == (0, 1, 1)

    def test_indexed_value_series(self):
        assert class_slot_counts("( between V V2 )") == (0, 2, 0)


class TestAssignSpans:
    def test_single_entity(self):
        question = tuple("what is birth date for chris pine".split())
        ents, vals, types, qp = assign_spans(question, [(5, 6)], SINGLE_RELATION)
        assert ents == ["chris_pine"]
        assert vals == [] and types == []
        assert qp.text == "what is birth date for entity1"

    def test_value_and_type_routing(self):
        cls = "( argmax ?x V ( and ( isa ?x T ) ( P1 ?x ?y ) ) )"
        question = tuple("list the top 3 movie by budget".split())
        ents, vals, types, qp = assign_spans(question, [(3, 3), (4, 4)], cls)
        assert ents == []
        assert vals == ["3"]
        assert types == ["movie"]
        assert qp.tokens == question  # nothing replaced without entity slots

    def test_span_shortfall_raises(self):
        question = tuple("is a the spouse of b".split())
        with pytest.raises(NoCandidates):
            assign_spans(question, [(1, 1)], "( P1 E1 E2 )")


class TestGenerateCandidates:
    def test_gold_candidate_present(self):
        question = tuple("what is birth date for chris pine".split())
        candidates, qp = generate_candidates_from(
            question, SINGLE_RELATION, [(5, 6)], single_relation_index()
        )
        texts = {c.text for c in candidates}
        assert (
            "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )" in texts
        )
        assert qp.text == "what is birth date for entity1"

    def test_unknown_class_raises(self):
        question = tuple("what is birth date for chris pine".split())
        with pytest.raises(NoCandidates):
            generate_candidates_from(question, "( missing )", [(5, 6)], PatternIndex())

    def test_arity_mismatched_templates_skipped(self):
        # Class expects two entities; only the arity-2 template may fire.
        index = PatternIndex()
        index.by_class["( P1 E1 E2 )"] = [
            PatternEntry(
                pattern=lf.LfPattern(("solo", "entity1")),
                template=lf.LfTemplate(("(", "mso:a.b", "entity1", ")"), 1),
            ),
            PatternEntry(
                pattern=lf.LfPattern(("duo", "entity1", "entity2")),
                template=lf.LfTemplate(("(", "mso:c.d", "entity1", "entity2", ")"), 2),
            ),
        ]
        question = tuple("is alpha beta the spouse of gamma delta".split())
        candidates, _ = generate_candidates_from(
            question, "( P1 E1 E2 )", [(1, 2), (6, 7)], index
        )
        assert [c.text for c in candidates] == ["( mso:c.d alpha_beta gamma_delta )"]

    def test_value_slot_takes_labeled_number(self):
        question = tuple("list the top 3 movie by budget".split())
        candidates, _ = generate_candidates_from(
            question, SUPERLATIVE, [(3, 3), (4, 4)], superlative_index()
        )
        assert candidates[0].text == (
            "( argmax ?x 3 ( and ( isa ?x movie ) ( mso:a.b ?x ?y ) ) )"
        )

    @pytest.mark.parametrize("delimiter", ["(", ")", "|||"])
    def test_delimiter_entity_span_fills_no_slot(self, delimiter):
        question = ("what", "is", "birth", "date", "for", delimiter)
        with pytest.raises(NoCandidates, match="delimiter"):
            generate_candidates_from(question, SINGLE_RELATION, [(5, 5)], single_relation_index())

    @pytest.mark.parametrize("delimiter", ["(", ")", "|||"])
    def test_delimiter_type_span_fills_no_slot(self, delimiter):
        question = ("list", "the", "top", "3", delimiter, "by", "budget")
        with pytest.raises(NoCandidates, match="delimiter"):
            generate_candidates_from(question, SUPERLATIVE, [(3, 3), (4, 4)], superlative_index())

    def test_slot_beyond_arity_rejected(self):
        with pytest.raises(ValueError, match="arity 1"):
            PatternEntry(
                pattern=lf.LfPattern(("duo", "entity1", "entity2")),
                template=lf.LfTemplate(("(", "mso:c.d", "entity1", "entity2", ")"), 1),
            )

    def test_slot_filling_matches_substitute_template(self, small_splits):
        train, _, _ = small_splits
        for entries in build_pattern_index(train).by_class.values():
            for entry in entries:
                fillers = [f"e{k}_x" for k in range(entry.template.entity_arity)]
                tokens = list(entry.template.tokens)
                for pos, k in entry.entity_positions:
                    tokens[pos] = fillers[k]
                assert tuple(tokens) == oracles.substitute_template(entry.template, fillers).tokens

    def test_duplicate_candidates_collapse(self):
        index = single_relation_index()
        index.by_class[SINGLE_RELATION].append(index.by_class[SINGLE_RELATION][0])
        question = tuple("what is birth date for chris pine".split())
        candidates, _ = generate_candidates_from(
            question, SINGLE_RELATION, [(5, 6)], index
        )
        assert len({c.tokens for c in candidates}) == len(candidates)


def scored(tokens: str, ps: float, pe: float = 0.5, gs: float = 0.5, freq: int = 1):
    toks = tuple(tokens.split())
    return ScoredCandidate(
        candidate=Candidate(tokens=toks, pattern=lf.LfPattern(toks), entity_fillers=(), freq=freq),
        pattern_score=ps,
        pe_score=pe,
        gen_score=gs,
    )


class TestRank:
    def test_pattern_only_ordering(self):
        items = [scored("a", 0.2), scored("b", 0.9), scored("c", 0.5)]
        ranked = rank(items, FusionWeights(1.0, 0.0, 0.0))
        assert [s.candidate.text for s in ranked] == ["b", "c", "a"]

    def test_fused_bounded(self):
        rng = random.Random(4)
        items = [
            scored(f"c{i}", rng.random(), rng.random(), rng.random()) for i in range(8)
        ]
        for s in rank(items, FusionWeights(0.4, 0.35, 0.25)):
            assert 0.0 <= s.fused <= 1.0

    def test_input_order_irrelevant(self):
        items = [scored("a", 0.4), scored("b", 0.4), scored("c", 0.4, freq=2)]
        weights = FusionWeights(0.6, 0.2, 0.2)
        baseline = [s.candidate.text for s in rank(items, weights)]
        for perm in itertools.permutations(items):
            assert [s.candidate.text for s in rank(list(perm), weights)] == baseline

    def test_boosting_gold_never_lowers_it(self):
        weights = FusionWeights(0.5, 0.25, 0.25)
        items = [scored("gold", 0.4), scored("x", 0.5), scored("y", 0.3)]
        before = [s.candidate.text for s in rank(items, weights)].index("gold")
        boosted = [scored("gold", 0.7), scored("x", 0.5), scored("y", 0.3)]
        after = [s.candidate.text for s in rank(boosted, weights)].index("gold")
        assert after <= before

    def test_weights_must_be_simplex(self):
        with pytest.raises(ValueError):
            FusionWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            FusionWeights(-0.1, 0.6, 0.5)


# Few distinct forms, scores and frequencies, so fused scores tie often.
FORMS = st.sampled_from([("a",), ("b",), ("a", "b"), ("a b",), ("b", "a")])
TIED_SCORES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
PACKED = st.tuples(FORMS, TIED_SCORES, TIED_SCORES, TIED_SCORES, st.integers(1, 3))


class TestTuneWeights:
    def test_grid_has_231_points(self):
        assert len(grid_points(0.05)) == 231

    def test_single_candidate_returns_pattern_corner(self):
        packs = [(("a",), [(("a",), 0.9, 0.1, 0.2, 1)])]
        weights = tune_weights(packs)
        assert weights == FusionWeights(1.0, 0.0, 0.0)

    def test_grid_contains_baseline(self):
        assert FusionWeights(1.0, 0.0, 0.0) in grid_points(0.05)

    def test_tuned_at_least_baseline(self):
        # gold wins on gen score but loses on pattern score
        packs = [
            (
                ("gold",),
                [(("gold",), 0.3, 0.5, 0.9, 1), (("bad",), 0.8, 0.5, 0.1, 1)],
            )
        ]
        tuned = tune_weights(packs)
        top = oracles.top_candidate(packs[0][1], tuned)
        assert top == ("gold",)

    def test_empty_dev_rejected(self):
        with pytest.raises(EmptyCorpus):
            tune_weights([])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(FORMS, st.lists(PACKED, max_size=6)), min_size=1, max_size=8))
    def test_matches_per_point_loop_on_ties(self, packs):
        assert tune_weights(packs) == oracles.tune_weights(packs)


def outcome(
    gold_class,
    pred_class,
    entities_ok,
    pred_lf,
    gold_lf=("(", "g", ")"),
    gold_generated=True,
):
    return SampleOutcome(
        gold_class=gold_class,
        pred_class=pred_class,
        gold_spans=[(0, 1)],
        pred_spans=[(0, 1)] if entities_ok else [(0, 0)],
        gold_lf=gold_lf,
        pred_lf=pred_lf,
        gold_generated=gold_generated,
    )


class TestMetrics:
    """Six hand-built outcomes with every subtask combination.

    gold A: right / sketch-wrong / entity-wrong; gold B: order-wrong /
    both-wrong / right. Expected rates are worked out by hand below.
    """

    def fixture(self):
        return [
            outcome("A", "A", True, ("(", "g", ")")),
            outcome("A", "B", True, ("(", "x", ")")),
            outcome("A", "A", False, ("(", "x", ")")),
            outcome("B", "B", True, (")", "g", "("), gold_generated=False),
            outcome("B", "A", False, ("(", "x", ")"), gold_generated=False),
            outcome("B", "B", True, ("(", "g", ")")),
        ]

    def test_exact_error_rates(self):
        report = compute_metrics(self.fixture())
        # Class A confusion: TP=2 (1,3), FN=1 (2), FP=1 (5) -> P=R=2/3, F1=2/3.
        # Class B mirrors it exactly, so Err_s = 1/3 everywhere.
        assert report["per_class"]["A"]["err_s"] == pytest.approx(1 / 3)
        assert report["per_class"]["B"]["err_s"] == pytest.approx(1 / 3)
        assert report["overall"]["err_s"] == pytest.approx(1 / 3)
        # One wrong-entity sample per class.
        assert report["per_class"]["A"]["err_e"] == pytest.approx(1 / 3)
        assert report["overall"]["err_e"] == pytest.approx(1 / 3)
        # A: samples 2,3 fail a subtask; B: sample 5 only.
        assert report["per_class"]["A"]["err_m"] == pytest.approx(2 / 3)
        assert report["per_class"]["B"]["err_m"] == pytest.approx(1 / 3)
        assert report["overall"]["err_m"] == pytest.approx(1 / 2)
        # Exact match fails for samples 2,3,4,5.
        assert report["overall"]["err_l"] == pytest.approx(2 / 3)

    def test_per_sample_wrongness_implies_subtask_error(self):
        for o in self.fixture():
            if not (o.sketch_ok and o.entities_ok):
                assert not o.sketch_ok or not o.entities_ok

    def test_taxonomy(self):
        report = compute_metrics(self.fixture())
        assert report["taxonomy"]["wrong_sketch"] == 2
        assert report["taxonomy"]["wrong_entities"] == 1
        assert report["taxonomy"]["wrong_order"] == 1
        assert report["taxonomy"]["wrong_predicate"] == 0

    def test_counts_and_gold_rate(self):
        report = compute_metrics(self.fixture())
        assert report["counts"]["samples"] == 6
        assert report["counts"]["exact_match"] == 2
        assert report["gold_candidate_rate"] == pytest.approx(4 / 6)

    def test_exact_match_bounded_by_gold_inclusion(self):
        report = compute_metrics(self.fixture())
        assert (
            report["counts"]["exact_match"] <= report["counts"]["gold_candidate_generated"] + 2
        )
        # strict form on outcomes where the top-1 equals gold
        for o in self.fixture():
            if o.lf_ok:
                assert o.gold_generated


@pytest.fixture(scope="module")
def trained_system(small_splits):
    train, dev, _ = small_splits
    cfg = SystemConfig(
        multitask=MultiTaskConfig(epochs=4, seed=0),
        matcher=MatcherConfig(epochs=2, refit_epochs=1, refits=2, seed=0),
    )
    return train_system(train, dev, cfg)


class TestEndToEnd:
    def test_high_exact_match_on_test_split(self, trained_system, small_splits):
        _, _, test = small_splits
        report = evaluate(test, trained_system)
        assert report["overall"]["err_l"] <= 0.05
        assert report["pattern_coverage"] == 1.0

    def test_err_l_matches_independent_recount(self, trained_system, small_splits):
        _, _, test = small_splits
        report = evaluate(test, trained_system)
        matches = sum(
            1
            for sample in test
            if predict(sample.question, trained_system) == sample.logical_form
        )
        assert report["overall"]["err_l"] == pytest.approx(1 - matches / len(test))

    def test_exact_match_bounded_by_gold_candidates(self, trained_system, small_splits):
        _, _, test = small_splits
        report = evaluate(test, trained_system)
        assert report["counts"]["exact_match"] <= report["counts"]["gold_candidate_generated"]

    def test_predict_in_vocab_question(self, trained_system, small_splits):
        train, _, _ = small_splits
        sample = next(s for s in train if s.question_type == "single-relation")
        assert predict(sample.question, trained_system) == sample.logical_form

    def test_predict_generalizes_to_unseen_entity(self, trained_system, small_corpus):
        # Recombine known first/last name tokens into an entity string that
        # never occurs in the corpus.
        surfaces = {
            p.surface for s in small_corpus for p in s.params if p.kind == "entity"
        }
        firsts = sorted({s.split("_")[0] for s in surfaces})
        lasts = sorted({s.split("_")[-1] for s in surfaces})
        novel = next(
            f"{a}_{b}" for a in firsts for b in lasts if f"{a}_{b}" not in surfaces
        )
        question = f"what is birth date for {novel.replace('_', ' ')}"
        expected = f"( lambda ?x ( mso:people.person.date_of_birth {novel} ?x ) )"
        assert predict(question, trained_system) == expected

    def test_predict_deterministic(self, trained_system, small_splits):
        _, _, test = small_splits
        q = test.samples[0].question
        assert predict(q, trained_system) == predict(q, trained_system)

    def test_predict_reports_candidate_scores(self, trained_system, small_splits):
        _, _, test = small_splits
        detail = predict_detailed(test.samples[0].question, trained_system)
        assert detail["candidates"]
        for cand in detail["candidates"]:
            for key in ("pattern_score", "pe_score", "gen_score", "fused"):
                assert 0.0 <= cand[key] <= 1.0

    def test_no_candidates_yields_empty_output(self, trained_system):
        detail = predict_detailed("complete gibberish zz qq", trained_system)
        if detail["predicted_logical_form"] == "":
            assert "diagnostic" in detail
        # (a lucky span labeling may still produce candidates; both are valid)

    @pytest.mark.parametrize("question", ["", "   "])
    def test_blank_question_yields_diagnostic(self, trained_system, question):
        detail = predict_detailed(question, trained_system)
        assert detail.pop("diagnostic")
        assert detail == {
            "predicted_logical_form": "",
            "sketch_class": "",
            "spans": [],
            "candidates": [],
        }
        assert predict(question, trained_system) == ""

    def test_callers_agree_with_parse(self, trained_system, small_splits):
        _, dev, test = small_splits
        for sample in (dev.samples + test.samples)[:20]:
            result = parse(sample.question_tokens, trained_system)
            order = [s.candidate.text for s in result.ranked]
            detail = predict_detailed(sample.question, trained_system)
            assert detail["sketch_class"] == result.sketch_class
            assert detail["spans"] == [list(span) for span in result.spans]
            assert detail["predicted_logical_form"] == order[0]
            assert [c["logical_form"] for c in detail["candidates"]] == order
            outcome = analyze_sample(trained_system, sample)
            assert (outcome.pred_class, outcome.pred_spans) == (result.sketch_class, result.spans)
            assert outcome.pred_lf == result.ranked[0].candidate.tokens

    def test_delimiter_span_yields_diagnostic(self, trained_system, monkeypatch):
        monkeypatch.setattr(multitask, "predict_spans", lambda *a: [(5, 5)])
        detail = predict_detailed("what is birth date for (", trained_system)
        assert "delimiter" in detail["diagnostic"]
        assert detail["predicted_logical_form"] == "" and detail["candidates"] == []
        assert detail["sketch_class"] in trained_system.multitask.classes
        assert detail["spans"] == [[5, 5]]

    @seed(19)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_swapped_tokens_never_raise(self, trained_system, small_splits, data):
        _, dev, test = small_splits
        tokens = list(data.draw(st.sampled_from(dev.samples + test.samples)).question_tokens)
        odd = st.sampled_from(["(", ")", "|||", "3", "1990", "entity1", "?x"]) | st.text(
            st.characters(min_codepoint=0x80, max_codepoint=0x2FFF), min_size=1, max_size=4
        )
        positions = st.integers(0, len(tokens) - 1)
        for pos, token in data.draw(st.lists(st.tuples(positions, odd), min_size=1, max_size=3)):
            tokens[pos] = token
        detail = predict_detailed(" ".join(tokens), trained_system)
        assert detail["candidates"] or detail["diagnostic"]
        for cand in detail["candidates"]:
            lf.parse_logical_form(cand["logical_form"])  # balanced, no stray separator

    def test_no_candidates_outcome_runs_first_stages_once(
        self, trained_system, small_splits, monkeypatch
    ):
        _, _, test = small_splits
        sample = test.samples[0]
        model = trained_system.multitask
        probs = multitask.classify_sketch(sample.question_tokens, model)
        spans = multitask.predict_spans(sample.question_tokens, model)
        calls = []
        classify = multitask.classify_sketch
        monkeypatch.setattr(
            multitask, "classify_sketch", lambda *a: calls.append(a) or classify(*a)
        )
        no_patterns = dataclasses.replace(trained_system, index=PatternIndex())
        outcome = analyze_sample(no_patterns, sample)
        assert outcome.no_candidates and outcome.pred_lf is None
        assert outcome.pred_class == model.classes[int(np.argmax(probs))]
        assert outcome.pred_spans == spans
        assert len(calls) == 1
        detail = predict_detailed(sample.question, no_patterns)
        assert detail["diagnostic"] and detail["candidates"] == []
        assert detail["sketch_class"] == outcome.pred_class
        assert detail["spans"] == [list(span) for span in spans]
        assert len(calls) == 2

    def test_tuned_weights_not_worse_than_pattern_only(self, trained_system, small_splits):
        _, dev, _ = small_splits
        packs = pipeline._dev_packs(trained_system, dev)
        tuned = trained_system.weights

        def accuracy(weights):
            return sum(
                1
                for gold, pack in packs
                if pack and oracles.top_candidate(pack, weights) == gold
            ) / len(packs)

        assert accuracy(tuned) >= accuracy(FusionWeights(1.0, 0.0, 0.0))


def assert_ranked_alike(fast, slow, weights, tol=1e-12):
    """``fast`` ranks like ``slow`` except among candidates whose fused
    scores under ``slow`` are within ``tol`` of each other."""
    oracle = {s.candidate.tokens: s.fused for s in rank(slow, weights)}
    order = [s.candidate.tokens for s in rank(fast, weights)]
    assert sorted(order) == sorted(oracle)
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            assert oracle[a] >= oracle[b] - tol


class TestScoreComponents:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_match_oracles_and_rank_alike(self, trained_system, data):
        system = trained_system
        words = st.sampled_from(system.matcher.members[0].vocab.tokens[2:] + ["oov_a", "oov_b"])
        ents = sorted(system.cooccurrence.ent_counts)[:20] + ["never_seen"]
        lf_token = st.sampled_from(
            ["(", ")", "?x", "3"] + sorted(system.cooccurrence.pred_counts)
            + ["mso:never.seen"] + ents
        )
        candidate = st.builds(
            Candidate,
            tokens=st.lists(lf_token, min_size=1, max_size=14).map(tuple),
            pattern=st.lists(words, min_size=1, max_size=10).map(
                lambda t: lf.LfPattern(tuple(t))
            ),
            entity_fillers=st.lists(st.sampled_from(ents), max_size=2).map(tuple),
            freq=st.integers(1, 3),
        )
        pool = data.draw(
            st.lists(candidate, min_size=1, max_size=60, unique_by=lambda c: c.tokens)
        )
        question = data.draw(st.lists(words, min_size=1, max_size=12).map(tuple))
        qp = lf.QuestionPattern(data.draw(st.lists(words, min_size=1, max_size=12).map(tuple)))
        sketch_class = data.draw(st.sampled_from(system.multitask.classes + ["( unseen )"]))

        fast = score_components(system, question, qp, sketch_class, pool)
        slow = [
            ScoredCandidate(candidate=c, pattern_score=ps, pe_score=pe, gen_score=gs)
            for c, ps, pe, gs in zip(
                pool,
                oracles.ensemble_score(system.matcher, qp.tokens, [c.pattern.tokens for c in pool]),
                [
                    oracles.score_candidate_pe(c.tokens, c.entity_fillers, system.cooccurrence)
                    for c in pool
                ],
                oracles.gen_scores(
                    system.gen, question, sketch_class,
                    [split_logical_form(c.tokens) for c in pool],
                ),
                strict=True,
            )
        ]
        for key in ("pattern_score", "pe_score", "gen_score"):
            got = np.array([getattr(s, key) for s in fast])
            want = np.array([getattr(s, key) for s in slow])
            assert np.max(np.abs(got - want)) <= 1e-12, key
        for weights in (system.weights, FusionWeights(0.4, 0.3, 0.3), FusionWeights(0, 0, 1)):
            assert_ranked_alike(fast, slow, weights)


class TestOutOfInventory:
    def test_unseen_gold_class_reported_as_inventory_miss(self):
        from sketchparse.data import GenConfig, generate_synthetic, split as split_corpus

        train_cfg = GenConfig(
            classes=("single-relation", "aggregation"),
            samples_per_class=40, entity_vocab=20, predicate_vocab=8, seed=5,
        )
        eval_cfg = GenConfig(
            classes=("single-relation", "aggregation", "yesno"),
            samples_per_class=10, entity_vocab=20, predicate_vocab=8, seed=6,
        )
        train, dev, _ = split_corpus(generate_synthetic(train_cfg), (0.8, 0.1, 0.1), seed=1)
        system = train_system(
            train,
            dev,
            SystemConfig(
                multitask=MultiTaskConfig(epochs=3),
                matcher=MatcherConfig(epochs=1, refit_epochs=1, refits=1),
            ),
        )
        report = evaluate(generate_synthetic(eval_cfg), system)
        yesno_class = "( P1 E1 E2 )"
        assert report["counts"]["inventory_misses"] == 10
        assert report["per_class"][yesno_class]["err_l"] == 1.0
        assert report["per_class"][yesno_class]["err_s"] == 1.0


class TestPersistence:
    def test_save_load_round_trip(self, trained_system, small_splits, tmp_path):
        _, _, test = small_splits
        model_dir = tmp_path / "model"
        save_system(trained_system, model_dir)
        reloaded = load_system(model_dir)

        for a, b in zip(
            trained_system.multitask.params().values(), reloaded.multitask.params().values()
        ):
            assert np.array_equal(a, b)
        assert reloaded.weights == trained_system.weights
        assert reloaded.multitask.classes == trained_system.multitask.classes
        assert {
            cls: [(e.pattern.tokens, e.template.tokens, e.freq) for e in entries]
            for cls, entries in reloaded.index.by_class.items()
        } == {
            cls: [(e.pattern.tokens, e.template.tokens, e.freq) for e in entries]
            for cls, entries in trained_system.index.by_class.items()
        }
        for sample in test.samples[:15]:
            assert predict(sample.question, reloaded) == predict(
                sample.question, trained_system
            )

    def test_other_format_version_rejected(self, trained_system, tmp_path):
        for version in (1, 99):
            model_dir = tmp_path / f"model_v{version}"
            save_system(trained_system, model_dir)
            manifest_path = model_dir / pipeline.MANIFEST_NAME
            manifest = json.loads(manifest_path.read_text())
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(learn.UnsupportedCheckpoint, match=f"format_version {version},"):
                load_system(model_dir)

    def test_inconsistent_checkpoint_rejected(self, trained_system, checkpoint_edit, tmp_path):
        edit, array_name = checkpoint_edit
        model_dir = tmp_path / "model"
        save_system(trained_system, model_dir)
        edit(model_dir)
        with pytest.raises(learn.CheckpointError, match=array_name):
            load_system(model_dir)

    def test_mistyped_json_rejected(self, trained_system, json_edit, tmp_path):
        edit, file_name, key = json_edit
        model_dir = tmp_path / "model"
        save_system(trained_system, model_dir)
        edit(model_dir)
        with pytest.raises(learn.CheckpointError) as caught:
            load_system(model_dir)
        assert file_name in str(caught.value) and key in str(caught.value)

    def test_save_load_save_byte_identical(self, trained_system, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        save_system(trained_system, first)
        save_system(load_system(first), second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(
            [
                pipeline.MANIFEST_NAME,
                pipeline.ARRAYS_NAME,
                pipeline.PATTERNS_NAME,
                pipeline.COOCCUR_NAME,
                pipeline.GENMODEL_NAME,
            ]
        )
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_failed_save_keeps_old_checkpoint(self, trained_system, tmp_path, monkeypatch):
        model_dir = tmp_path / "model"
        save_system(trained_system, model_dir)
        before = {p.name: p.read_bytes() for p in model_dir.iterdir()}
        write_json = learn.save_json

        def half_written(path, payload):
            if path.name == pipeline.PATTERNS_NAME:
                path.write_text("{")
                raise OSError("disk full")
            write_json(path, payload)

        monkeypatch.setattr(learn, "save_json", half_written)
        other = dataclasses.replace(trained_system, weights=FusionWeights(0.5, 0.25, 0.25))
        with pytest.raises(OSError, match="disk full"):
            save_system(other, model_dir)
        assert {p.name: p.read_bytes() for p in model_dir.iterdir()} == before
        assert load_system(model_dir).weights == trained_system.weights
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    def test_resave_replaces_checkpoint(self, trained_system, tmp_path):
        model_dir = tmp_path / "model"
        save_system(trained_system, model_dir)
        weights = FusionWeights(0.5, 0.25, 0.25)
        save_system(dataclasses.replace(trained_system, weights=weights), model_dir)
        assert load_system(model_dir).weights == weights
        assert sorted(p.name for p in model_dir.iterdir()) == sorted(pipeline.CHECKPOINT_FILES)
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    def test_directory_with_other_files_not_replaced(self, trained_system, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(learn.CheckpointError, match="notes.txt"):
            save_system(trained_system, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_outcome_analysis_stable_after_reload(
        self, trained_system, small_splits, tmp_path
    ):
        _, _, test = small_splits
        model_dir = tmp_path / "model2"
        save_system(trained_system, model_dir)
        reloaded = load_system(model_dir)
        for sample in test.samples[:10]:
            a = analyze_sample(trained_system, sample)
            b = analyze_sample(reloaded, sample)
            assert (a.pred_class, a.pred_spans, a.pred_lf) == (
                b.pred_class,
                b.pred_spans,
                b.pred_lf,
            )
