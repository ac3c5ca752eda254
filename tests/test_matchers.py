from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparse import genscore, lf, matchers
from sketchparse.data import Corpus, EmptyCorpus, make_sample
from sketchparse.learn import LinearHead, Vocab
from sketchparse.matchers import (
    CooccurrenceConfig,
    CooccurrenceModel,
    MatcherConfig,
    MatcherEnsemble,
    PatternEntry,
    PatternIndex,
    bag_matrix,
    build_cooccurrence,
    build_pattern_index,
    extract_pred_entity_pairs,
    fit_pe_head,
    init_matcher,
    pair_loss_grads,
    ranking_resample,
    sample_pattern_pair,
    score_candidate_pe,
    score_pair,
    select_by_rank,
    train_matcher_ensemble,
)
from tests import oracles
from tests.test_learn import assert_close_grads, central_difference

BIRTH_SAMPLE = make_sample(
    question="what is birth date for chris pine",
    logical_form="( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )",
    params=[lf.ParamAnnotation("chris_pine", "entity", (5, 6))],
    question_type="single-relation",
)


def pattern(*words: str) -> lf.LfPattern:
    return lf.LfPattern(tuple(words))


class TestPatternIndex:
    def test_single_sample_corpus(self):
        index = build_pattern_index(Corpus(samples=[BIRTH_SAMPLE]))
        assert list(index.by_class) == ["( lambda ?x ( P1 E1 ?x ) )"]
        entries = index.patterns("( lambda ?x ( P1 E1 ?x ) )")
        assert len(entries) == 1
        assert entries[0].pattern.text == "people person date of birth entity1 ?x"
        assert entries[0].freq == 1

    def test_coverage_of_train_is_total(self, small_splits):
        train, _, _ = small_splits
        assert build_pattern_index(train).coverage(train) == 1.0

    def test_synthetic_closure_covers_dev(self, small_splits):
        train, dev, test = small_splits
        index = build_pattern_index(train)
        assert index.coverage(dev) == 1.0
        assert index.coverage(test) == 1.0

    def test_duplicates_accumulate_frequency(self, small_splits):
        train, _, _ = small_splits
        index = build_pattern_index(train)
        assert sum(e.freq for es in index.by_class.values() for e in es) == len(train)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_pattern_index(Corpus(samples=[]))


# Template tokens and fillers for filled candidates: fillers may equal a
# fixed template token ("lambda", "?x", "isa") or start with "mso:".
TEMPLATE_TOKEN = st.sampled_from(
    ["(", "(", ")", ")", "lambda", "?x", "?y", "isa", "and", "mso:a.b_c", "mso:d.e",
     "film.film", "book", "x_y", "entity1", "entity2", "3", "-2.5"]
)
FILLER = st.sampled_from(
    ["greta_kim", "bob_lee", "lambda", "?x", "isa", "mso:a.b_c", "mso:new.pred_x", "x_y", "b.c"]
)
VALUE = st.sampled_from(["7", "-1.5", "3", "12"])


@st.composite
def filled_candidate(draw):
    """(entry, filled tokens, entity fillers): a random template with its
    slots filled at the positions the entry records."""
    tokens = tuple(draw(st.lists(TEMPLATE_TOKEN, min_size=1, max_size=16)))
    arity = max(map(lf.entity_slot, tokens))
    entry = PatternEntry(pattern=pattern("p"), template=lf.LfTemplate(tokens, arity))
    fillers = tuple(draw(st.lists(FILLER, min_size=arity, max_size=arity, unique=True)))
    filled = list(tokens)
    for pos, k in entry.entity_positions:
        filled[pos] = fillers[k]
    for pos in entry.value_positions:
        filled[pos] = draw(VALUE)
    for pos in entry.type_positions:
        filled[pos] = draw(FILLER)
    return entry, tuple(filled), fillers


def hand_built_cooccurrence() -> CooccurrenceModel:
    """Counts over FILLER and TEMPLATE_TOKEN names and a random head, so that
    the pair probabilities differ."""
    rng = np.random.default_rng(3)
    return CooccurrenceModel(
        pair_counts={("mso:a.b_c", "greta_kim"): 3, ("mso:d.e", "lambda"): 1, ("mso:a.b_c", "?x"): 2},
        pred_counts={"mso:a.b_c": 5, "mso:d.e": 1, "mso:new.pred_x": 2},
        ent_counts={"greta_kim": 3, "lambda": 1, "?x": 2, "isa": 4},
        head=LinearHead(rng.normal(size=(2, 5)), rng.normal(size=2)),
    )


class TestTemplateRecords:
    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(TEMPLATE_TOKEN, min_size=1, max_size=20).map(tuple))
    def test_one_pass_slots_match_per_kind_scans(self, tokens):
        arity = max(map(lf.entity_slot, tokens))
        entry = PatternEntry(pattern=pattern("p"), template=lf.LfTemplate(tokens, arity))
        assert (
            entry.entity_positions, entry.value_positions, entry.type_positions
        ) == oracles.entry_slots(entry.template)
        slots = {pos for pos, _ in entry.entity_positions}
        assert entry.slot_positions == tuple(
            sorted(slots | set(entry.value_positions) | set(entry.type_positions))
        )

    def test_slot_beyond_arity_rejected(self):
        with pytest.raises(ValueError, match="beyond its arity 1"):
            PatternEntry(pattern("p"), lf.LfTemplate(("(", "entity2", ")"), 1))

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(filled_candidate(), min_size=1, max_size=30))
    def test_split_words_match_per_candidate_split(self, pool):
        got = genscore.split_pool(
            [(tokens, entry.words, entry.slot_positions) for entry, tokens, _ in pool]
        )
        assert got == [genscore.split_logical_form(tokens) for _, tokens, _ in pool]

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(filled_candidate(), min_size=1, max_size=30))
    def test_pool_pe_equals_per_candidate_oracle(self, pool):
        model = hand_built_cooccurrence()
        got = score_candidate_pe(
            [(tokens, fillers, entry.groups) for entry, tokens, fillers in pool], model
        ).tolist()
        assert got == [
            oracles.score_candidate_pe(tokens, fillers, model) for _, tokens, fillers in pool
        ]

    def test_pool_pe_covers_odd_fillers_and_pairless_candidates(self):
        model = hand_built_cooccurrence()
        template = tuple("( lambda ?x ( mso:a.b_c entity1 ?x ) ( isa ?x book ) )".split())
        entry = PatternEntry(pattern("p"), lf.LfTemplate(template, 1))
        assert entry.type_positions == (11,)
        pool = []
        for fillers, kind in ((("lambda",), "book"), (("?x",), "mso:new.pred_x"), (("mso:d.e",), "x")):
            tokens = list(template)
            tokens[5], tokens[11] = fillers[0], kind
            pool.append((tuple(tokens), fillers, entry.groups))
        pairless = tuple("( lambda ?x ( isa ?x book ) )".split())
        pool.append((pairless, ("greta_kim",), pe_entry(pairless).groups))
        many = tuple("( mso:a.b_c mso:d.e ?x ?x lambda ?x mso:new.pred_x ?x ?x ?x )".split())
        pool.append((many, ("?x",), pe_entry(many).groups))
        oracle = [oracles.score_candidate_pe(t, f, model) for t, f, _ in pool]
        # "?x" as the filler also pairs with the template's own "?x" tokens; a
        # "mso:" type filler is a predicate; 18 pairs exceed numpy's 8-term blocks.
        assert [len(oracles.matchers.extract_pred_entity_pairs(t, f)) for t, f, _ in pool] == [
            1, 3, 2, 0, 18,
        ]
        assert oracle[3] == 0.5
        assert score_candidate_pe(pool, model).tolist() == oracle

    def test_empty_pool(self):
        assert score_candidate_pe([], hand_built_cooccurrence()).shape == (0,)


class TestSampleNegatives:
    """The reference trainer's uniform negatives (oracles.sample_negatives)."""

    def make_index(self, n_patterns: int) -> tuple[PatternIndex, lf.LfPattern]:
        index = PatternIndex()
        entries = [
            matchers.PatternEntry(
                pattern=pattern("rel", str(i), "entity1"),
                template=lf.LfTemplate(("(", f"p{i}", "entity1", ")"), 1),
            )
            for i in range(n_patterns)
        ]
        index.by_class["cls"] = entries
        return index, entries[0].pattern

    def test_gold_only_class_yields_nothing(self):
        index, gold = self.make_index(1)
        qp = lf.QuestionPattern(("q", "entity1"))
        assert oracles.sample_negatives(qp, "cls", gold, index, 5, 0) == []

    def test_small_class_is_clamped(self):
        index, gold = self.make_index(4)
        qp = lf.QuestionPattern(("q",))
        negatives = oracles.sample_negatives(qp, "cls", gold, index, 5, 0)
        assert len(negatives) == 3

    def test_empty_class_raises(self):
        index, gold = self.make_index(1)
        with pytest.raises(matchers.EmptyClass):
            oracles.sample_negatives(lf.QuestionPattern(("q",)), "nope", gold, index, 5, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_gold_never_sampled(self, seed):
        index, gold = self.make_index(8)
        qp = lf.QuestionPattern(("q",))
        for neg in oracles.sample_negatives(qp, "cls", gold, index, 5, seed):
            assert neg.lfp.tokens != gold.tokens
            assert neg.label == 0
            assert neg.sketch_class == "cls"

    def test_uniform_without_replacement(self):
        index, gold = self.make_index(10)
        qp = lf.QuestionPattern(("q",))
        negatives = oracles.sample_negatives(qp, "cls", gold, index, 6, 123)
        tokens = [n.lfp.tokens for n in negatives]
        assert len(tokens) == 6
        assert len(set(tokens)) == 6


def as_rows(pairs, vocab_size):
    """Ragged (a ids, b ids, label) pairs as pair_loss_grads takes them: the
    (n, 3) rows (i, n + i, label) and the bag matrix of the 2n id lists."""
    n = len(pairs)
    bags = bag_matrix([a for a, _, _ in pairs] + [b for _, b, _ in pairs], vocab_size)
    rows = np.array([(i, n + i, label) for i, (_, _, label) in enumerate(pairs)])
    return rows.reshape(n, 3), bags


def off_the_abs_kink(model, pair, margin=1e-3):
    """|mean(a) - mean(b)| has a kink at 0, and central differences with step
    1e-4 straddle it when a coordinate of the difference is that close."""
    emb = model.encoder.embedding
    a_ids, b_ids, _ = pair
    return np.abs(emb[a_ids].mean(axis=0) - emb[b_ids].mean(axis=0)).min() > margin


class TestScorePair:
    def test_zero_model_scores_half(self):
        vocab = Vocab.build([["a", "b"]])
        model = init_matcher(vocab, MatcherConfig(hidden=8, seed=0))
        assert score_pair(["a"], ["b"], model) == pytest.approx(0.5)

    def test_deterministic(self, small_splits):
        train, _, _ = small_splits
        index = build_pattern_index(train)
        vocab = Vocab.build([["a", "b", "c"]])
        model = init_matcher(vocab, MatcherConfig(hidden=8, seed=1))
        first = score_pair(["a", "b"], ["c"], model)
        assert first == score_pair(["a", "b"], ["c"], model)

    def test_loss_gradients_match_finite_differences(self):
        vocab = Vocab.build([["a", "b", "c", "d"]])
        cfg = MatcherConfig(hidden=3, seed=2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = init_matcher(vocab, cfg)
            model.head.weight = rng.normal(size=model.head.weight.shape)
            pairs = [
                (
                    rng.integers(2, 6, size=int(rng.integers(1, 4))),
                    rng.integers(2, 6, size=int(rng.integers(1, 4))),
                    int(rng.integers(0, 2)),
                )
                for _ in range(int(rng.integers(1, 7)))  # ragged batches
            ]
            pairs.append((np.array([2, 2, 3]), np.array([4]), 1))  # a repeated id
            pairs = [pair for pair in pairs if off_the_abs_kink(model, pair)]
            rows, bags = as_rows(pairs, len(vocab))
            params = model.params()
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            pair_loss_grads(model, rows, bags, grads)
            numeric = central_difference(
                lambda: pair_loss_grads(
                    model, rows, bags, {k: np.zeros_like(v) for k, v in params.items()}
                ),
                params,
            )
            assert_close_grads(grads, numeric)


def zero_grads(model):
    return {k: np.zeros_like(v) for k, v in model.params().items()}


IDS = st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=8)


class TestBatchedPairLoss:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(IDS, IDS, st.integers(0, 1)), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_pair_loop(self, raw_pairs, seed):
        rng = np.random.default_rng(seed)
        vocab = Vocab.build([[f"t{i}" for i in range(10)]])
        model = init_matcher(vocab, MatcherConfig(hidden=5))
        model.encoder.embedding = rng.normal(size=model.encoder.embedding.shape)
        model.head.weight = rng.normal(size=model.head.weight.shape)
        model.head.bias = rng.normal(size=model.head.bias.shape)
        pairs = [(np.array(a), np.array(b), label) for a, b, label in raw_pairs]
        batched, looped = zero_grads(model), zero_grads(model)
        loss = pair_loss_grads(model, *as_rows(pairs, len(vocab)), batched)
        assert abs(loss - oracles.pair_loss_grads(model, pairs, looped)) <= 1e-12
        for name, grad in looped.items():
            assert np.max(np.abs(batched[name] - grad)) <= 1e-12, name

    def test_empty_batch_is_free(self):
        model = init_matcher(Vocab.build([["a"]]), MatcherConfig(hidden=3))
        grads = zero_grads(model)
        assert pair_loss_grads(model, np.zeros((0, 3), np.int64), np.zeros((0, 3)), grads) == 0.0
        assert all(not g.any() for g in grads.values())


# Patterns over a 10-token vocabulary plus two tokens outside it.
PATTERN = st.lists(
    st.sampled_from([f"t{i}" for i in range(10)] + ["oov_a", "oov_b"]), min_size=1, max_size=12
).map(tuple)


class TestPoolScoring:
    @settings(max_examples=100, deadline=None)
    @given(PATTERN, st.lists(PATTERN, min_size=1, max_size=60), st.integers(0, 2**32 - 1))
    def test_matches_per_pair_oracle(self, qp, pool, seed):
        rng = np.random.default_rng(seed)
        vocab = Vocab.build([[f"t{i}" for i in range(10)]])
        members = []
        for _ in range(3):
            model = init_matcher(vocab, MatcherConfig(hidden=5))
            model.encoder.embedding = rng.normal(size=model.encoder.embedding.shape)
            model.head.weight = rng.normal(size=model.head.weight.shape)
            model.head.bias = rng.normal(size=model.head.bias.shape)
            members.append(model)
        ensemble = MatcherEnsemble(members=members)
        expected = np.array(oracles.ensemble_score(ensemble, qp, pool))
        for _ in range(2):  # the second call reads every pattern from the memo
            scores = ensemble.score(qp, pool)
            assert scores.shape == (len(pool),)
            assert np.max(np.abs(scores - expected)) <= 1e-12

    def test_empty_pool(self):
        model = init_matcher(Vocab.build([["a"]]), MatcherConfig(hidden=3))
        assert MatcherEnsemble(members=[model]).score(("a",), []).shape == (0,)


class TestRankingSampling:
    def test_small_pool_keeps_everything(self):
        pool = [(pattern("h", str(i)), 0.5) for i in range(3)]
        pool += [(pattern("e", str(i)), 1e-6) for i in range(2)]
        picked = select_by_rank(pool, random.Random(0))
        assert len(picked) == 5

    def test_large_hard_pool_capped_at_twenty(self):
        pool = [(pattern("h", str(i)), 0.01 + i * 1e-4) for i in range(100)]
        picked = select_by_rank(pool, random.Random(0))
        assert len(picked) == 20

    def test_threshold_is_exact(self):
        at = pattern("at")
        above = pattern("above")
        pool = [(at, 1e-4), (above, 1.00001e-4)]
        picked = select_by_rank(pool, random.Random(0), hard_count=1, easy_count=0)
        assert picked == [above]  # p == threshold counts as easy

    def test_hard_picks_come_from_hard_pool(self):
        rng = random.Random(3)
        pool = [(pattern("h", str(i)), 0.3) for i in range(50)]
        pool += [(pattern("e", str(i)), 1e-9) for i in range(50)]
        scores = dict((p.tokens, s) for p, s in pool)
        picked = select_by_rank(pool, rng)
        hard = [p for p in picked if scores[p.tokens] > 1e-4]
        easy = [p for p in picked if scores[p.tokens] <= 1e-4]
        assert len(hard) == 20
        assert len(easy) == 5

    def test_ranking_resample_uses_model_scores(self):
        vocab = Vocab.build([["q", "x", "y"]])
        model = init_matcher(vocab, MatcherConfig(hidden=4, seed=0))
        # zero model scores everything 0.5 > 1e-4, so every negative is hard
        patterns = [("q",), ("y",)] + [("x", str(i)) for i in range(30)]
        negatives = list(range(2, 32))
        out = ranking_resample(model, [(0, 1, negatives)], patterns, 7)
        assert out.shape == (20, 3)
        assert (out[:, 0] == 0).all() and (out[:, 2] == 0).all()
        assert set(out[:, 1]) <= set(negatives)

    def test_shared_scores_are_kept_per_question_pattern(self):
        vocab = Vocab.build([["q", "r", "x", "y", "0", "1", "2"]])
        model = init_matcher(vocab, MatcherConfig(hidden=4, seed=0))
        model.head.weight = np.random.default_rng(5).normal(size=model.head.weight.shape)
        patterns = [("q",), ("r",), ("y",)] + [("x", str(i)) for i in range(3)]
        pool = [(q, 2, [3, 4, 5]) for q in (0, 1)]
        kwargs = dict(hard_count=1, easy_count=1, threshold=0.5)
        scored = {}
        first = ranking_resample(model, pool, patterns, 3, **kwargs, scored=scored)
        assert sorted(scored) == [(0, 2), (1, 2)]
        for q in (0, 1):
            assert scored[q, 2] == [
                (neg, score_pair(patterns[q], patterns[neg], model)) for neg in (3, 4, 5)
            ]
        assert scored[0, 2] != scored[1, 2]
        again = ranking_resample(model, pool, patterns, 3, **kwargs, scored=scored)
        assert np.array_equal(again, first)
        assert np.array_equal(ranking_resample(model, pool, patterns, 3, **kwargs), first)


@pytest.fixture(scope="module")
def trained_matcher(small_splits):
    train, dev, _ = small_splits
    index = build_pattern_index(train)
    cfg = MatcherConfig(epochs=3, refit_epochs=1, refits=2, seed=0)
    return train_matcher_ensemble(train, index, cfg), index, train, dev


class TestMatcherTraining:
    def test_memoised_resample_matches_rescoring(self, small_splits, monkeypatch):
        train, dev, _ = small_splits
        index = build_pattern_index(train)
        cfg = MatcherConfig(epochs=1, refit_epochs=2, refits=2, seed=0)
        scored = []  # the (question pattern, negative) of every score_pair call
        score_pair = matchers.score_pair
        monkeypatch.setattr(
            matchers, "score_pair", lambda *args: scored.append(args[:2]) or score_pair(*args)
        )
        memoised = train_matcher_ensemble(train, index, cfg)
        memo_scored = list(scored)

        ranking_resample = matchers.ranking_resample
        monkeypatch.setattr(
            matchers,
            "ranking_resample",
            lambda *args, scored=None, **kwargs: ranking_resample(*args, **kwargs),
        )
        scored.clear()
        rescored = train_matcher_ensemble(train, index, cfg)
        # Memoised: each distinct pair once; rescoring: every pair in each of the 4 calls.
        assert len(memo_scored) == len(set(memo_scored)) > 0
        assert set(memo_scored) == set(scored)
        assert 4 * len(memo_scored) <= len(scored)
        for mine, theirs in zip(memoised.members, rescored.members, strict=True):
            for name, value in mine.params().items():
                assert np.array_equal(value, theirs.params()[name]), name

    def test_base_plus_refits_gives_three_members(self, trained_matcher):
        ensemble, _, _, _ = trained_matcher
        assert len(ensemble.members) == 3

    def test_gold_outranks_in_class_negatives(self, trained_matcher):
        ensemble, index, _, dev = trained_matcher
        assert oracles.pattern_ranking_accuracy(ensemble, dev, index) >= 0.90

    def test_ensemble_of_identical_members_matches_single(self, trained_matcher):
        ensemble, index, _, dev = trained_matcher
        base = ensemble.members[0]
        cloned = MatcherEnsemble(members=[base, base, base])
        qp, gold = sample_pattern_pair(dev.samples[0])
        assert cloned.score(qp.tokens, [gold.tokens])[0] == pytest.approx(
            score_pair(qp.tokens, gold.tokens, base)
        )

    def test_ensemble_score_within_member_range(self, trained_matcher):
        ensemble, index, _, dev = trained_matcher
        for sample in dev.samples[:10]:
            qp, gold = sample_pattern_pair(sample)
            members = [score_pair(qp.tokens, gold.tokens, m) for m in ensemble.members]
            fused = ensemble.score(qp.tokens, [gold.tokens])[0]
            assert min(members) - 1e-12 <= fused <= max(members) + 1e-12

    def test_ensemble_not_worse_than_base(self, trained_matcher):
        ensemble, index, _, dev = trained_matcher
        base_acc = oracles.pattern_ranking_accuracy(ensemble.members[0], dev, index)
        ens_acc = oracles.pattern_ranking_accuracy(ensemble, dev, index)
        assert ens_acc >= base_acc - 0.005

    def test_probabilities_in_open_interval(self, trained_matcher):
        ensemble, index, _, dev = trained_matcher
        for sample in dev.samples[:10]:
            qp, gold = sample_pattern_pair(sample)
            p = ensemble.score(qp.tokens, [gold.tokens])[0]
            assert 0.0 < p < 1.0


def relation_sample(question, predicate, entity):
    tokens = question.split()
    at = tokens.index(entity)
    return make_sample(
        question=question,
        logical_form=f"( lambda ?x ( {predicate} {entity} ?x ) )",
        params=[lf.ParamAnnotation(entity, "entity", (at, at))],
        question_type="single-relation",
    )


def hand_built_corpus() -> Corpus:
    """One class of 27 LF patterns (more than NEGATIVES), a question pattern
    shared by two gold LF patterns, and repeated tokens on both sides."""
    samples = [
        relation_sample(f"what is the r{i} of e{j}", f"mso:rel.r{i}.value", f"e{j}")
        for i in range(26)
        for j in range(3)
    ]
    samples.append(relation_sample("tell me about e0", "mso:rel.r0.value", "e0"))
    samples.append(relation_sample("tell me about e1", "mso:rel.r1.value", "e1"))
    samples.append(relation_sample("film film director of e2", "mso:film.film.film_director", "e2"))
    return Corpus(samples=samples)


def assert_same_members(mine, theirs):
    for a, b in zip(mine.members, theirs.members, strict=True):
        assert a.vocab.tokens == b.vocab.tokens
        for name, value in a.params().items():
            assert np.array_equal(value, b.params()[name]), name


class TestTrainerOracle:
    """train_matcher_ensemble against the object-based reference trainer."""

    def test_fixture_corpus_members_equal_reference(self, small_splits):
        train, _, _ = small_splits
        index = build_pattern_index(train)
        cfg = MatcherConfig(seed=3)
        assert_same_members(
            train_matcher_ensemble(train, index, cfg),
            oracles.train_matcher_ensemble(train, index, cfg),
        )

    def test_hand_built_corpus_members_equal_reference(self, monkeypatch):
        train = hand_built_corpus()
        index = build_pattern_index(train)
        pairs = [sample_pattern_pair(s) for s in train]
        (entries,) = index.by_class.values()
        assert len(entries) > matchers.NEGATIVES
        golds_of = {}
        for qp, gold in pairs:
            golds_of.setdefault(qp.tokens, set()).add(gold.tokens)
        assert max(len(golds) for golds in golds_of.values()) == 2
        assert any(len(set(p.tokens)) < len(p.tokens) for pair in pairs for p in pair)

        cfg = MatcherConfig(hidden=16, epochs=1, seed=5)
        scored = []  # the (question pattern, negative) of every score_pair call
        score_pair_ = matchers.score_pair
        monkeypatch.setattr(
            matchers, "score_pair", lambda *args: scored.append(args[:2]) or score_pair_(*args)
        )
        ensemble = train_matcher_ensemble(train, index, cfg)
        monkeypatch.undo()
        assert_same_members(ensemble, oracles.train_matcher_ensemble(train, index, cfg))
        # The shared question pattern's negatives are scored once, not once per gold.
        assert len(scored) == len(set(scored))
        # Some question has more hard negatives under the base than HARD_COUNT.
        base = ensemble.members[0]
        hard = max(
            sum(
                score_pair(qp.tokens, e.pattern.tokens, base) > matchers.HARD_THRESHOLD
                for e in entries
                if e.pattern.tokens != gold.tokens
            )
            for qp, gold in pairs
        )
        assert hard > matchers.HARD_COUNT

    def test_class_missing_from_index_raises(self, small_splits):
        train, _, _ = small_splits
        index = build_pattern_index(train)
        del index.by_class[train.samples[0].sketch_class]
        with pytest.raises(matchers.EmptyClass):
            train_matcher_ensemble(train, index, MatcherConfig(hidden=4))


def nested_groups(tokens):
    """Independent oracle: parse into nested lists, then walk each group."""

    def parse(position):
        group = []
        while position < len(tokens):
            tok = tokens[position]
            if tok == "(":
                child, position = parse(position + 1)
                group.append(child)
            elif tok == ")":
                return group, position + 1
            else:
                group.append(tok)
                position += 1
        return group, position

    tree, _ = parse(0)
    return tree


def oracle_pairs(tokens, surfaces):
    surfaces = set(surfaces)
    found = []

    def walk(group):
        atoms = [t for t in group if isinstance(t, str)]
        preds = [t for t in atoms if t.startswith("mso:")]
        ents = [t for t in atoms if t in surfaces]
        for p in preds:
            for e in ents:
                found.append((p, e))
        for child in group:
            if isinstance(child, list):
                walk(child)

    walk(nested_groups(list(tokens)))
    return found


def pe_entry(tokens) -> PatternEntry:
    """An index entry whose template is ``tokens`` itself, with no entity slots."""
    return PatternEntry(pattern=lf.LfPattern(()), template=lf.LfTemplate(tuple(tokens), 0))


def pe_of_one(tokens, surfaces, model) -> float:
    """``score_candidate_pe`` of a one-candidate pool whose template is the
    candidate's own tokens."""
    return score_candidate_pe([(tokens, surfaces, pe_entry(tokens).groups)], model)[0]


class TestCooccurrence:
    def test_reference_sample_pair(self):
        model = build_cooccurrence(Corpus(samples=[BIRTH_SAMPLE]))
        assert set(model.pair_counts) == {("mso:people.person.date_of_birth", "chris_pine")}

    def test_no_entities_no_pairs(self):
        sample = make_sample(
            question="list the top 3 movie by budget",
            logical_form="( argmax ?x 3 ( isa ?x movie ) )",
            params=[
                lf.ParamAnnotation("3", "value", (3, 3)),
                lf.ParamAnnotation("movie", "type", (4, 4)),
            ],
            question_type="superlative",
        )
        model = build_cooccurrence(Corpus(samples=[sample]))
        assert set(model.pair_counts) == set()

    def test_matches_independent_scan(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train)
        expected: dict[tuple[str, str], int] = {}
        for sample in train:
            surfaces = [p.surface for p in sample.params if p.kind == "entity"]
            for pair in oracle_pairs(sample.lf.tokens, surfaces):
                expected[pair] = expected.get(pair, 0) + 1
        assert model.pair_counts == expected

    def test_nested_groups_pair_only_direct_members(self):
        tokens = tuple("( and ( mso:a.b e1 ?y ) ( mso:c.d ?y e2 ) )".split())
        assert extract_pred_entity_pairs(tokens, ["e1", "e2"]) == [
            ("mso:a.b", "e1"),
            ("mso:c.d", "e2"),
        ]

    def test_seen_pair_scores_high(self, small_splits):
        train, dev, _ = small_splits
        model = build_cooccurrence(train, CooccurrenceConfig(seed=0))
        pred, ent = sorted(set(model.pair_counts))[0]
        assert model.pair_prob(pred, ent) > 0.5

    def test_unseen_pair_scores_low(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train, CooccurrenceConfig(seed=0))
        preds = sorted(model.pred_counts)
        ents = sorted(model.ent_counts)
        unseen = next(
            (p, e) for p in preds for e in ents if (p, e) not in model.pair_counts
        )
        assert model.pair_prob(*unseen) < 0.5

    def test_pairless_candidate_neutral(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train)
        assert pe_of_one(("(", "a", "b", ")"), [], model) == 0.5

    def test_memo_equals_pair_prob_for_unseen_names(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train)
        preds = sorted(model.pred_counts)[:3] + ["mso:never.seen", "mso:also.unseen"]
        ents = sorted(model.ent_counts)[:3] + ["never_seen", "also_unseen"]
        for pred in preds:
            for ent in ents:
                assert model.memo_pair_prob(pred, ent) == model.pair_prob(pred, ent)
        # Keyed by counts: more unseen names add no keys.
        size = len(model._pair_probs)
        for i in range(50):
            assert model.memo_pair_prob(preds[0], f"unseen_{i}") == model.pair_prob(
                preds[0], f"unseen_{i}"
            )
            model.memo_pair_prob(f"mso:unseen.{i}", ents[0])
        assert len(model._pair_probs) == size

    def test_candidate_mean_matches_unmemoised_oracle(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train)
        rng = random.Random(0)
        preds = sorted(model.pred_counts) + ["mso:never.seen"]
        ents = sorted(model.ent_counts) + ["never_seen"]
        for _ in range(200):
            surfaces = rng.sample(ents, 2)
            tokens = ["("]
            for _ in range(rng.randint(1, 3)):
                tokens += ["(", rng.choice(preds), rng.choice(surfaces), "?x", ")"]
            tokens.append(")")
            assert pe_of_one(tokens, surfaces, model) == oracles.score_candidate_pe(
                tokens, surfaces, model
            )

    def test_two_pair_candidate_is_mean(self, small_splits):
        train, _, _ = small_splits
        model = build_cooccurrence(train)
        tokens = tuple("( and ( mso:a.b e1 ) ( mso:c.d e2 ) )".split())
        expected = (model.pair_prob("mso:a.b", "e1") + model.pair_prob("mso:c.d", "e2")) / 2
        assert pe_of_one(tokens, ["e1", "e2"], model) == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_batched_head_matches_per_example_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, size=(n, 3))
        feats = np.column_stack([np.ones(n), counts[:, 0] > 0, np.log1p(counts)])
        labels = (counts[:, 0] > 0).astype(np.int64)
        labels[rng.random(n) < 0.1] ^= 1
        batched, looped = LinearHead.zeros(2, 5), LinearHead.zeros(2, 5)
        fit_pe_head(batched, feats, labels, seed % 1000)
        oracles.fit_pe_head(looped, feats, labels, seed % 1000)
        assert np.max(np.abs(batched.weight - looped.weight)) <= 1e-12
        assert np.max(np.abs(batched.bias - looped.bias)) <= 1e-12
