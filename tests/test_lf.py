from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketchparse import lf
from tests import oracles

# A single-relation sample in the reference corpus layout.
BIRTH_QUESTION = "what is birth date for chris pine"
BIRTH_LF = "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )"
BIRTH_PARAM = lf.ParamAnnotation(surface="chris_pine", kind="entity", span=(5, 6))

# A two-turn sample: one entity reused across turns, two predicates.
TWO_TURN_QUESTION = (
    "travels in the interior districts of africa has how many pages? ||| "
    "when is the date of publication of the book edition?"
)
TWO_TURN_LF = (
    "( lambda ?x ( mso:book.edition.number_of_pages "
    "travels_in_the_interior_districts_of_africa ?x ) ) ||| "
    "( lambda ?x ( mso:book.edition.publication_date "
    "travels_in_the_interior_districts_of_africa ?x ) )"
)
TWO_TURN_PARAM = lf.ParamAnnotation(
    surface="travels_in_the_interior_districts_of_africa", kind="entity", span=(0, 6)
)


def sample_artifacts(sample):
    order = sample.entity_order
    return (
        lf.extract_sketch(sample.lf, sample.params),
        lf.derive_question_pattern(sample.question_tokens, sample.params),
        lf.derive_lf_pattern(sample.lf, sample.params, order),
        lf.derive_template(sample.lf, sample.params, order),
    )


class TestTokenize:
    def test_seven_tokens_with_name_at_end(self):
        tokens = lf.tokenize_question(BIRTH_QUESTION)
        assert len(tokens) == 7
        assert tokens[5] == "chris"
        assert tokens[6] == "pine"

    def test_single_token(self):
        assert lf.tokenize("a") == ("a",)

    def test_whitespace_collapse(self):
        assert lf.tokenize("  a  b ") == ("a", "b")

    def test_empty_input(self):
        with pytest.raises(lf.EmptyInput):
            lf.tokenize("   ")

    def test_question_lowercased_logical_form_untouched(self):
        assert lf.tokenize_question("What IS this") == ("what", "is", "this")
        assert lf.tokenize("( mso:A.b Chris )") == ("(", "mso:A.b", "Chris", ")")

    @given(st.lists(st.text(alphabet="abcz", min_size=1), min_size=1))
    def test_round_trips_through_join(self, words):
        assert lf.tokenize(" ".join(words)) == tuple(words)


class TestParseLogicalForm:
    def test_flat_form(self):
        form = lf.parse_logical_form("( P1 E1 E2 )")
        assert len(form.tokens) == 5
        assert len(lf.split_turns(form.tokens)) == 1

    def test_two_turns(self):
        form = lf.parse_logical_form("( a ) ||| ( b )")
        assert len(lf.split_turns(form.tokens)) == 2

    def test_unbalanced(self):
        with pytest.raises(lf.UnbalancedParens) as err:
            lf.parse_logical_form("( ( a )")
        assert err.value.turn == 0

    def test_unbalanced_second_turn(self):
        with pytest.raises(lf.UnbalancedParens) as err:
            lf.parse_logical_form("( a ) ||| ( b ) )")
        assert err.value.turn == 1

    def test_empty(self):
        with pytest.raises(lf.EmptyForm):
            lf.parse_logical_form("  ")


class TestExtractSketch:
    def test_single_relation(self):
        form = lf.parse_logical_form(BIRTH_LF)
        sketch = lf.extract_sketch(form, [BIRTH_PARAM])
        assert sketch.text == "( lambda ?x ( P1 E1 ?x ) )"
        assert dict(sketch.bindings) == {
            "P1": "mso:people.person.date_of_birth",
            "E1": "chris_pine",
        }

    def test_two_turn_entity_reuse(self):
        form = lf.parse_logical_form(TWO_TURN_LF)
        sketch = lf.extract_sketch(form, [TWO_TURN_PARAM])
        assert sketch.text == "( lambda ?x ( P1 E1 ?x ) ) ||| ( lambda ?x ( P2 E1 ?x ) )"

    def test_nothing_to_delexicalize(self):
        form = lf.parse_logical_form("( foo bar )")
        sketch = lf.extract_sketch(form, [])
        assert sketch.tokens == form.tokens
        assert sketch.bindings == ()

    def test_missing_surface(self):
        form = lf.parse_logical_form("( a b )")
        with pytest.raises(lf.MissingSurface):
            lf.extract_sketch(form, [lf.ParamAnnotation("zzz", "entity", (0, 0))])

    def test_value_and_type_placeholders(self):
        form = lf.parse_logical_form("( argmax ?x 3 ( isa ?x movie ) )")
        params = [
            lf.ParamAnnotation("3", "value", (0, 0)),
            lf.ParamAnnotation("movie", "type", (1, 1)),
        ]
        sketch = lf.extract_sketch(form, params)
        assert sketch.text == "( argmax ?x V ( isa ?x T ) )"

    def test_second_distinct_value_gets_indexed_placeholder(self):
        form = lf.parse_logical_form("( between 3 7 )")
        sketch = lf.extract_sketch(form, [])
        assert sketch.text == "( between V V2 )"
        assert oracles.substitute_sketch(sketch).tokens == form.tokens


class TestQuestionPattern:
    def test_two_turn_question(self):
        tokens = lf.tokenize_question(TWO_TURN_QUESTION)
        pattern = lf.derive_question_pattern(tokens, [TWO_TURN_PARAM])
        assert pattern.text == (
            "entity1 has how many pages? ||| "
            "when is the date of publication of the book edition?"
        )

    def test_no_entities_is_identity(self):
        tokens = lf.tokenize_question("list the top 3 movie by budget")
        pattern = lf.derive_question_pattern(
            tokens, [lf.ParamAnnotation("3", "value", (3, 3))]
        )
        assert pattern.tokens == tokens

    def test_two_entities_numbered_left_to_right(self, small_corpus):
        sample = next(
            s for s in small_corpus if len({p.surface for p in s.params}) == 2
            and all(p.kind == "entity" for p in s.params)
        )
        pattern = lf.derive_question_pattern(sample.question_tokens, sample.params)
        first = pattern.tokens.index("entity1")
        second = pattern.tokens.index("entity2")
        assert first < second

    def test_overlapping_spans(self):
        tokens = lf.tokenize_question("a b c d")
        params = [
            lf.ParamAnnotation("a_b", "entity", (0, 1)),
            lf.ParamAnnotation("b_c", "entity", (1, 2)),
        ]
        with pytest.raises(lf.OverlappingSpans):
            lf.derive_question_pattern(tokens, params)


class TestLfPattern:
    def test_two_turn_pattern(self):
        form = lf.parse_logical_form(TWO_TURN_LF)
        order = {"travels_in_the_interior_districts_of_africa": 1}
        pattern = lf.derive_lf_pattern(form, [TWO_TURN_PARAM], order)
        assert pattern.text == (
            "book edition number of pages entity1 ?x ||| "
            "book edition publication date entity1 ?x"
        )

    def test_plain_tokens_lose_parens_only(self):
        form = lf.parse_logical_form("( P E )")
        assert lf.derive_lf_pattern(form, [], {}).tokens == ("P", "E")

    def test_two_entity_order(self):
        # Hand-applied rule: drop parens, split the predicate, index entities.
        form = lf.parse_logical_form("( mso:a.b e1 e2 )")
        params = [
            lf.ParamAnnotation("e1", "entity", (0, 0)),
            lf.ParamAnnotation("e2", "entity", (1, 1)),
        ]
        pattern = lf.derive_lf_pattern(form, params, {"e1": 1, "e2": 2})
        assert pattern.text == "a b entity1 entity2"

    def test_unknown_entity(self):
        form = lf.parse_logical_form("( mso:a.b e1 )")
        params = [lf.ParamAnnotation("e1", "entity", (0, 0))]
        with pytest.raises(lf.UnknownEntity):
            lf.derive_lf_pattern(form, params, {})

    def test_no_structural_tokens_survive(self, small_corpus):
        for sample in small_corpus.samples[::7]:
            pattern = lf.derive_lf_pattern(sample.lf, sample.params, sample.entity_order)
            assert "(" not in pattern.tokens
            assert ")" not in pattern.tokens
            assert "lambda" not in pattern.tokens


class TestTemplate:
    def test_single_relation_template(self):
        form = lf.parse_logical_form(BIRTH_LF)
        template = lf.derive_template(form, [BIRTH_PARAM], {"chris_pine": 1})
        assert " ".join(template.tokens) == (
            "( lambda ?x ( mso:people.person.date_of_birth entity1 ?x ) )"
        )
        assert template.entity_arity == 1

    def test_no_entities(self):
        form = lf.parse_logical_form("( a b )")
        template = lf.derive_template(form, [], {})
        assert template.tokens == form.tokens
        assert template.entity_arity == 0

    def test_substitute_reproduces_source(self):
        form = lf.parse_logical_form(BIRTH_LF)
        template = lf.derive_template(form, [BIRTH_PARAM], {"chris_pine": 1})
        assert oracles.substitute_template(template, ["chris_pine"]).tokens == form.tokens

    def test_substitute_arity_zero(self):
        template = lf.LfTemplate(tokens=("(", "a", ")"), entity_arity=0)
        assert oracles.substitute_template(template, []).tokens == ("(", "a", ")")

    def test_arity_mismatch(self):
        template = lf.LfTemplate(tokens=("(", "entity1", "entity2", ")"), entity_arity=2)
        with pytest.raises(oracles.ArityMismatch):
            oracles.substitute_template(template, ["only_one"])

    def test_multi_word_fillers_are_joined(self):
        template = lf.LfTemplate(tokens=("(", "p", "entity1", ")"), entity_arity=1)
        assert oracles.substitute_template(template, ["chris pine"]).tokens == (
            "(", "p", "chris_pine", ")",
        )


class TestInvariants:
    def test_sketch_round_trip(self, small_corpus):
        for sample in small_corpus:
            sketch = lf.extract_sketch(sample.lf, sample.params)
            assert oracles.substitute_sketch(sketch).tokens == sample.lf.tokens

    def test_template_round_trip(self, small_corpus):
        for sample in small_corpus:
            order = sample.entity_order
            template = lf.derive_template(sample.lf, sample.params, order)
            fillers = [s for s, _ in sorted(order.items(), key=lambda kv: kv[1])]
            assert oracles.substitute_template(template, fillers).tokens == sample.lf.tokens

    def test_placeholder_indices_follow_first_occurrence(self, small_corpus):
        for sample in small_corpus:
            sketch = lf.extract_sketch(sample.lf, sample.params)
            for series in ("P", "E"):
                seen = []
                for tok in sketch.tokens:
                    if tok.startswith(series) and tok[len(series):].isdigit():
                        idx = int(tok[len(series):])
                        if idx not in seen:
                            seen.append(idx)
                assert seen == list(range(1, len(seen) + 1))

    def test_derivations_are_deterministic(self, small_corpus):
        sample = small_corpus.samples[3]
        assert sample_artifacts(sample) == sample_artifacts(sample)

    def test_pattern_survives_resubstitution(self, small_corpus):
        # Substituting fresh surfaces into a template leaves the pattern intact.
        for sample in small_corpus.samples[::11]:
            order = sample.entity_order
            template = lf.derive_template(sample.lf, sample.params, order)
            original = lf.derive_lf_pattern(sample.lf, sample.params, order)
            fresh = [f"name_{k}" for k in range(1, template.entity_arity + 1)]
            rebuilt = oracles.substitute_template(template, fresh)
            params = [
                lf.ParamAnnotation(surface=f, kind="entity", span=(0, 0)) for f in fresh
            ]
            fresh_order = {f: k + 1 for k, f in enumerate(fresh)}
            assert lf.derive_lf_pattern(rebuilt, params, fresh_order).tokens == original.tokens


class TestSlotHelpers:
    def test_numeric_positions(self):
        assert lf.numeric_positions(("(", "argmax", "3", "x", "4.5", ")")) == [2, 4]

    def test_numeric_rejects_words(self):
        assert not lf.is_numeric("nan")
        assert not lf.is_numeric("inf")
        assert not lf.is_numeric("a1")
        assert lf.is_numeric("-3")
        assert lf.is_numeric("3.5")

    def test_isa_argument_positions(self):
        tokens = tuple("( and ( isa ?x movie ) ( mso:a.b ?x ?y ) )".split())
        assert lf.isa_argument_positions(tokens) == [5]

    def test_entity_slot(self):
        assert lf.is_entity_slot("entity1")
        assert lf.is_entity_slot("entity12")
        assert not lf.is_entity_slot("entity")
        assert not lf.is_entity_slot("entity0")
