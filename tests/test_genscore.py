from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparse.data import Corpus, EmptyCorpus
from sketchparse.genscore import (
    AllZeroLosses,
    ClassStats,
    EmptyCandidate,
    GenMemberConfig,
    GenModel,
    fit_genmodel,
    gen_scores,
    normalize_losses,
    seq_loss,
    split_logical_form,
    split_pool,
)
from sketchparse.lf import LfPattern, LfTemplate
from sketchparse.matchers import PatternEntry
from tests import oracles

BIRTH_TOKENS = tuple(
    "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )".split()
)


class TestSplitLogicalForm:
    def test_reference_form(self):
        assert split_logical_form(BIRTH_TOKENS) == (
            "( lambda ?x ( people person date of birth chris pine ?x ) )".split()
        )

    def test_plain_tokens_unchanged(self):
        tokens = ("(", "count", "?x", ")")
        assert split_logical_form(tokens) == list(tokens)

    def test_idempotent(self):
        once = split_logical_form(BIRTH_TOKENS)
        assert split_logical_form(once) == once

    def test_numeric_literals_kept_whole(self):
        assert split_logical_form(("argmore", "3.5")) == ["argmore", "3.5"]


class TestSeqLoss:
    def test_copy_dominant_limit(self):
        question = tuple("a b c d".split())
        stats = ClassStats()
        loss = seq_loss(question, ["a", "b"], stats, lam=0.999, alpha=0.1)
        assert loss <= -math.log(0.999 / len(question)) + 1e-9

    def test_nonnegative(self):
        rng = random.Random(0)
        stats = ClassStats()
        stats.observe(["x", "y", "z"])
        for _ in range(50):
            target = [rng.choice("xyzw") for _ in range(rng.randint(1, 6))]
            loss = seq_loss(("x", "q"), target, stats, lam=0.4, alpha=0.1)
            assert loss >= 0.0

    def test_empty_candidate(self):
        with pytest.raises(EmptyCandidate):
            seq_loss(("q",), [], ClassStats(), 0.5, 0.1)

    def test_deterministic(self):
        stats = ClassStats()
        stats.observe(["a", "b"])
        args = (("q", "a"), ["a", "b"], stats, 0.5, 0.1)
        assert seq_loss(*args) == seq_loss(*args)

    def test_mixture_is_a_distribution(self):
        # Sum over the class vocabulary, the unknown slot and question-only
        # words of the mixture probability is 1.
        stats = ClassStats()
        stats.observe(["a", "b", "a", "c"])
        question = ("b", "q", "q", "z")
        lam, alpha = 0.6, 0.25
        prev = "a"
        vocab_terms = {w: stats.prob(w, prev, alpha) for w in stats.vocab}
        unk_mass = stats.prob("<never-seen>", prev, alpha)
        q_counts = {w: question.count(w) / len(question) for w in set(question)}
        total = 0.0
        for w in sorted(set(vocab_terms) | set(q_counts)):
            bigram = vocab_terms.get(w, unk_mass if w not in stats.vocab else 0.0)
            total += lam * q_counts.get(w, 0.0) + (1 - lam) * bigram
        # the remaining unknown words share the single unknown slot
        leftover_unknowns = 1 - len([w for w in q_counts if w not in stats.vocab])
        total += (1 - lam) * unk_mass * leftover_unknowns
        assert total == pytest.approx(1.0, abs=1e-9)


class TestNormalizeLosses:
    def test_forced_arithmetic(self):
        assert normalize_losses([2.0, 4.0, 1.0]) == pytest.approx([0.5, 0.0, 0.75])

    def test_max_loss_scores_zero(self):
        scores = normalize_losses([1.0, 3.0, 2.0])
        assert scores[1] == 0.0

    def test_singleton(self):
        assert normalize_losses([7.0]) == [0.0]

    def test_all_zero_flagged(self):
        with pytest.warns(AllZeroLosses):
            scores = normalize_losses([0.0, 0.0])
        assert scores == [1.0, 1.0]

    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            losses = [rng.uniform(0, 10) for _ in range(rng.randint(1, 8))]
            for s in normalize_losses(losses):
                assert 0.0 <= s <= 1.0

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        st.floats(0.001, 1000.0),
    )
    def test_positive_scaling_invariance(self, losses, scale):
        direct = normalize_losses(losses)
        scaled = normalize_losses([x * scale for x in losses])
        assert np.max(np.abs(np.array(direct) - np.array(scaled))) <= 1e-12

    def test_order_reversing(self):
        losses = [0.5, 2.5, 1.5]
        scores = normalize_losses(losses)
        assert sorted(range(3), key=lambda i: losses[i]) == sorted(
            range(3), key=lambda i: -scores[i]
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalize_losses([])
        with pytest.raises(ValueError):
            normalize_losses([-1.0])


# Words of a small class vocabulary plus two it never saw.
SEEN_WORD = st.sampled_from(["a", "b", "c", "d", "e", "?x", "3"])
WORD = st.one_of(SEEN_WORD, st.sampled_from(["unseen_1", "unseen_2"]))


class TestClassStats:
    def test_observe_after_prob_clears_cached_totals(self):
        stats = ClassStats()
        stats.observe(["a", "b"])
        before = stats.prob("b", "a", 0.1)
        stats.observe(["a", "c"])
        fresh = ClassStats()
        fresh.observe(["a", "b"])
        fresh.observe(["a", "c"])
        assert stats.prob("b", "a", 0.1) == fresh.prob("b", "a", 0.1) != before


class TestPoolScoring:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(SEEN_WORD, min_size=1, max_size=8), max_size=12),
        st.lists(WORD, max_size=10),
        st.lists(st.lists(WORD, min_size=1, max_size=12), min_size=1, max_size=60),
        st.sampled_from(["seen", "unseen"]),
    )
    def test_matches_per_candidate_oracle(self, corpus, question, pool, sketch_class):
        stats = ClassStats()
        for words in corpus:
            stats.observe(words)
        model = GenModel(class_stats={"seen": stats})
        expected = np.array(oracles.gen_scores(model, question, sketch_class, pool))
        scores = np.array(gen_scores(model, question, sketch_class, pool))
        assert scores.shape == expected.shape
        assert np.max(np.abs(scores - expected)) <= 1e-12

    def test_all_zero_losses_score_one(self):
        # Empty class statistics and a one-word question: every word has p = 1.
        model = GenModel(class_stats={})
        pool = [["a"], ["a", "a"]]
        assert gen_scores(model, ["a"], "c", pool) == [1.0, 1.0]
        assert oracles.gen_scores(model, ["a"], "c", pool) == [1.0, 1.0]

    def test_empty_candidate_rejected(self):
        model = GenModel(class_stats={})
        with pytest.raises(EmptyCandidate):
            gen_scores(model, ["a"], "c", [["a"], []])

    def test_split_pool_matches_per_candidate_split(self):
        pool = [BIRTH_TOKENS, BIRTH_TOKENS[::-1], ("argmore", "3.5", "mso:a.b_c")]
        entries = [PatternEntry(LfPattern(()), LfTemplate(tokens, 0)) for tokens in pool]
        assert split_pool(
            [(tokens, e.words, e.slot_positions) for tokens, e in zip(pool, entries)]
        ) == [split_logical_form(tokens) for tokens in pool]


class TestGenModel:
    def test_three_members_by_default(self, small_splits):
        train, _, _ = small_splits
        model = fit_genmodel(train)
        assert len(model.members) == 3

    def test_identical_members_equal_single(self, small_splits):
        train, dev, _ = small_splits
        member = GenMemberConfig(lam=0.5, alpha=0.1)
        tripled = fit_genmodel(train, [member, member, member])
        single = fit_genmodel(train, [member])
        sample = dev.samples[0]
        pool = [
            split_logical_form(sample.lf.tokens),
            ["people", "person", "spouse", "?x"],
        ]
        a = gen_scores(tripled, sample.question_tokens, sample.sketch_class, pool)
        b = gen_scores(single, sample.question_tokens, sample.sketch_class, pool)
        assert a == pytest.approx(b)

    def test_scores_bounded(self, small_splits):
        train, dev, _ = small_splits
        model = fit_genmodel(train)
        for sample in dev.samples[:20]:
            pool = [
                split_logical_form(sample.lf.tokens),
                ["unrelated", "words", "entirely"],
            ]
            for s in gen_scores(model, sample.question_tokens, sample.sketch_class, pool):
                assert 0.0 <= s <= 1.0

    def test_each_member_zeroes_its_max_loss_candidate(self):
        rng = random.Random(2)
        losses = [rng.uniform(1, 5) for _ in range(6)]
        scores = normalize_losses(losses)
        assert scores.count(0.0) == 1

    def test_gold_beats_same_class_impostor(self, small_splits):
        from sketchparse.matchers import build_pattern_index, sample_pattern_pair

        train, dev, _ = small_splits
        index = build_pattern_index(train)
        model = fit_genmodel(train)
        rng = random.Random(3)
        wins = total = 0
        for sample in dev:
            gold_pattern = sample_pattern_pair(sample)[1]
            entries = index.patterns(sample.sketch_class)
            impostors = [e for e in entries if e.pattern.tokens != gold_pattern.tokens]
            if not impostors:
                continue
            entry = rng.choice(impostors)
            fillers = [
                s for s, _ in sorted(sample.entity_order.items(), key=lambda kv: kv[1])
            ]
            try:
                impostor_lf = oracles.substitute_template(entry.template, fillers)
            except oracles.ArityMismatch:
                continue
            stats = model.stats_for(sample.sketch_class)
            member = model.members[1]
            gold_loss = seq_loss(
                sample.question_tokens,
                split_logical_form(sample.lf.tokens),
                stats,
                member.lam,
                member.alpha,
            )
            impostor_loss = seq_loss(
                sample.question_tokens,
                split_logical_form(impostor_lf.tokens),
                stats,
                member.lam,
                member.alpha,
            )
            total += 1
            wins += gold_loss < impostor_loss
        assert total > 0
        assert wins / total >= 0.85

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_genmodel(Corpus(samples=[]))
