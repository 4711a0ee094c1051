from __future__ import annotations

import random

import pytest

import oracles
from supplygraph.errors import AmbiguousAnswer, EmptyParse
from supplygraph.prompting import (
    CLASSIFICATION_TEMPLATE,
    EXTRACTION_TEMPLATE,
    REASONING_PREAMBLE,
    ExtractedEntity,
    ParseDiagnostics,
    PromptTemplate,
    build_classification_prompt,
    build_extraction_prompt,
    estimate_tokens,
    parse_entity_list,
    parse_yes_no,
    render_entity_list,
    segment_text,
    truncate_to_budget,
)


# -- token estimation ------------------------------------------------------


def test_estimate_tokens_example():
    assert estimate_tokens("bechtel wins contract") == 3


def test_estimate_tokens_empty():
    assert estimate_tokens("") == 0


def test_estimate_tokens_scales_with_words():
    assert estimate_tokens("one two three four five six seven eight nine ten") == 13


def test_truncate_to_budget_noop_when_under():
    text = "short text."
    assert truncate_to_budget(text, 100) == text


def test_truncate_to_budget_trims_to_fit():
    words = " ".join(f"w{i}" for i in range(100))
    out = truncate_to_budget(words, 13)
    assert estimate_tokens(out) <= 13
    assert words.startswith(out)
    # one more word would blow the budget
    kept = len(out.split())
    assert estimate_tokens(" ".join(words.split()[: kept + 1])) > 13


def test_truncate_to_budget_zero_budget():
    assert truncate_to_budget("anything at all", 0) == ""


def test_truncate_to_budget_matches_bisection():
    rng = random.Random(5)
    separators = [" ", "  ", "\t", "\n", " \u00a0", "\u3000"]
    # Every length up to 100 words, then every 25th up to 400.
    for n in [*range(100), *range(100, 401, 25)]:
        text = "".join(rng.choice(["w", "co.", "x:y"]) + rng.choice(separators) for _ in range(n))
        if rng.random() < 0.5:
            text = text.rstrip()
        for budget in range(-6, estimate_tokens(text) + 2):
            assert truncate_to_budget(text, budget) == oracles.truncate_by_bisection(text, budget), (
                n, budget)


# -- segmentation -----------------------------------------------------------


def test_segment_text_single_segment_when_it_fits():
    plan = segment_text("tiny. text.", 100)
    assert plan.segments == ("tiny. text.",)


def test_segment_text_concatenation_is_lossless():
    text = "  first sentence here. second sentence there!  third one?  tail"
    plan = segment_text(text, 5)
    assert "".join(plan.segments) == text


def test_segment_text_each_segment_within_budget():
    sentences = " ".join(f"word{i} word{i} word{i}." for i in range(40))
    plan = segment_text(sentences, 10)
    assert len(plan.segments) > 1
    for segment in plan.segments:
        assert estimate_tokens(segment) <= 10


def test_segment_text_splits_giant_sentence_on_words():
    text = " ".join(f"w{i}" for i in range(50)) + "."
    plan = segment_text(text, 10)
    assert len(plan.segments) > 1
    assert "".join(plan.segments) == text
    for segment in plan.segments:
        assert estimate_tokens(segment) <= 10


def test_segment_text_rejects_zero_budget():
    with pytest.raises(ValueError):
        segment_text("anything", 0)


def test_segment_text_empty_input():
    assert segment_text("", 10).segments == ()


def _fuzz_cases():
    rng = random.Random(77)
    vocab = ["alpha", "beta", "gamma", "12.5", "co.", "x:y", "end"]
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(0, 60)):
            parts.append(rng.choice(vocab))
            parts.append(rng.choice([" ", "  ", ". ", "! ", "? ", "\n"]))
        yield "".join(parts), rng.randint(1, 25)


def test_segment_text_lossless_fuzz():
    for text, budget in _fuzz_cases():
        plan = segment_text(text, budget)
        assert "".join(plan.segments) == text
        for segment in plan.segments:
            assert estimate_tokens(segment) <= budget


def _edge_cases():
    # Texts that end in a word, start with whitespace, use other whitespace
    # characters, or are run-on bodies that fall back to word spans.
    rng = random.Random(78)
    vocab = ["alpha", "beta", "12.5", "co.", "x:y", "end!", "why?"]
    separators = [" ", "\t", "\u00a0", "\u3000", "\x1c", ". ", ".\t", "!\u3000", "?\x1c", "\n"]
    for _ in range(300):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        text = "".join(w + rng.choice(separators) for w in words[:-1]) + words[-1]
        if rng.random() < 0.5:
            text = rng.choice([" ", "\t ", "\u00a0", "\u3000\x1c"]) + text
        yield text, rng.randint(1, 25)
    for _ in range(5):
        body = " ".join(rng.choice(["alpha", "beta", "gamma", "12.5", "x:y"]) for _ in range(600))
        yield body, 400
        yield body + ".", 400
        yield "  " + body.replace(" ", "\u00a0", 50) + " ", 400


def _word_limit(budget):
    return max(m for m in range(budget + 2) if int(m * 1.3) <= budget)


def _count_cases():
    # Cuts by word count: budgets of 1 to 3 words, sentences of limit - 1,
    # limit and limit + 1 words, a run-on sentence after a partly filled
    # segment, whitespace-only texts, and Unicode whitespace between words.
    rng = random.Random(79)
    spaces = [" ", "  ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000", " \u2029 "]
    words = ["alpha", "b", "12.5", "x:y", "é", "co.", "東京"]

    def sentence(n):
        body = [rng.choice(words) for _ in range(n)]
        return "".join(w + rng.choice(spaces) for w in body[:-1]) + body[-1] + rng.choice(".!?")

    for budget in (1, 2, 3, 4, 5, 9, 14):
        limit = _word_limit(budget)
        sizes = sorted({1, max(1, limit - 1), limit, limit + 1, 2 * limit + 1})
        for first in range(limit + 1):
            for second in sizes:
                yield sentence(first) + " " + sentence(second) if first else sentence(second), budget
        for _ in range(40):
            text = "".join(sentence(rng.choice(sizes)) + rng.choice(spaces)
                           for _ in range(rng.randint(1, 5)))
            if rng.random() < 0.3:
                text = rng.choice(spaces) + text
            if rng.random() < 0.3:
                text = text.rstrip()
            yield text, budget
        for blank in (" ", "\t\n", "\u3000\u2003", "\x1c\x1d", "  \x85 "):
            yield blank, budget


def test_segment_text_matches_reestimating_reference():
    for text, budget in [*_fuzz_cases(), *_edge_cases(), *_count_cases()]:
        assert segment_text(text, budget).segments == oracles.segment_by_reestimate(text, budget), (
            text, budget)


# -- entity list parsing ------------------------------------------------------


def test_parse_entity_list_numbered():
    response = (
        "1. AECOM: infrastructure consulting firm\n"
        "2. Bechtel: engineering and construction\n"
        "3. TxDOT: state transportation agency\n"
    )
    assert parse_entity_list(response, ParseDiagnostics()) == [
        ExtractedEntity("AECOM", "infrastructure consulting firm"),
        ExtractedEntity("Bechtel", "engineering and construction"),
        ExtractedEntity("TxDOT", "state transportation agency"),
    ]


def test_parse_entity_list_skips_preamble():
    response = (
        "Sure, here are the entities\n"
        "1. AECOM: an infrastructure firm\n"
    )
    diagnostics = ParseDiagnostics()
    entities = parse_entity_list(response, diagnostics)
    assert entities == [ExtractedEntity("AECOM", "an infrastructure firm")]
    assert diagnostics.lines_skipped == 1


def test_parse_entity_list_unnumbered_needs_description():
    response = "AECOM: planning and design\nnoise without colon\n"
    assert parse_entity_list(response, ParseDiagnostics()) == [
        ExtractedEntity("AECOM", "planning and design")
    ]


def test_parse_entity_list_numbered_empty_description_ok():
    assert parse_entity_list("1. AECOM:", ParseDiagnostics()) == [ExtractedEntity("AECOM", "")]


def test_parse_entity_list_unnumbered_empty_description_skipped():
    with pytest.raises(EmptyParse):
        parse_entity_list("AECOM:\n", ParseDiagnostics())


def test_parse_entity_list_blank_lines_ignored():
    diagnostics = ParseDiagnostics()
    entities = parse_entity_list("\n\n1. Acme: maker of anvils\n\n", diagnostics)
    assert entities == [ExtractedEntity("Acme", "maker of anvils")]
    assert diagnostics.lines_skipped == 0


def test_parse_entity_list_empty_response_is_no_entities():
    diagnostics = ParseDiagnostics()
    assert parse_entity_list("   \n ", diagnostics) == []
    assert diagnostics.lines_skipped == 0


def test_parse_entity_list_garbage_raises_empty_parse():
    diagnostics = ParseDiagnostics()
    with pytest.raises(EmptyParse):
        parse_entity_list("no entities were mentioned in the article", diagnostics)
    assert diagnostics.lines_skipped == 1


def test_parse_entity_list_name_whitespace_trimmed():
    entities = parse_entity_list("1.   Acme Corp  :  heavy equipment  ", ParseDiagnostics())
    assert entities == [ExtractedEntity("Acme Corp", "heavy equipment")]


def test_parse_entity_list_drops_what_xml_forbids_from_names():
    # Names become graphml ids and labels; descriptions reach only JSON.
    entities = parse_entity_list("1. Acme\ufffe Corp\uffff\x01: a\ufffe b\x0c", ParseDiagnostics())
    assert entities == [ExtractedEntity("Acme Corp", "a\ufffe b")]


def test_parse_entity_list_colon_in_description_kept():
    entities = parse_entity_list("1. Acme: rentals: cranes and lifts", ParseDiagnostics())
    assert entities == [ExtractedEntity("Acme", "rentals: cranes and lifts")]


def test_render_parse_roundtrip_fuzz():
    rng = random.Random(33)
    name_words = ["Acme", "Delta", "Nor3th", "O'Neil", "B2B", "Mix."]
    desc_words = ["makes", "cranes", "12.5", "tons", "a:b", "and", "lifts!"]
    for _ in range(300):
        entities = []
        for _ in range(rng.randint(1, 8)):
            name = " ".join(rng.choice(name_words) for _ in range(rng.randint(1, 3)))
            desc = " ".join(rng.choice(desc_words) for _ in range(rng.randint(0, 6)))
            entities.append(ExtractedEntity(name, desc))
        rendered = render_entity_list(entities)
        assert parse_entity_list(rendered, ParseDiagnostics()) == entities


# -- yes/no parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "response,expected",
    [
        ("Yes", True),
        ("no", False),
        ("YES.", True),
        ("  No, it is not.", False),
        ("Yes, based on the description.", True),
    ],
)
def test_parse_yes_no_accepts(response, expected):
    assert parse_yes_no(response) is expected


@pytest.mark.parametrize("response", ["maybe", "", "the answer is yes", "Y", "nope"])
def test_parse_yes_no_rejects(response):
    with pytest.raises(AmbiguousAnswer):
        parse_yes_no(response)


# -- prompt building -----------------------------------------------------------


def test_extraction_prompt_embeds_inputs():
    triple = build_extraction_prompt("acme hired delta.", "civil engineering")
    assert "acme hired delta." in triple.user
    assert "civil engineering" in triple.question
    assert "{news}" not in triple.user
    assert "{industry}" not in triple.question
    assert triple.system == EXTRACTION_TEMPLATE.system


def test_classification_prompt_embeds_inputs():
    triple = build_classification_prompt("Acme", "builds bridges", "construction contractor")
    assert "Acme" in triple.user
    assert "builds bridges" in triple.user
    assert "construction contractor" in triple.question
    assert triple.system == CLASSIFICATION_TEMPLATE.system


def test_reasoning_preamble_prepended_to_question():
    plain = build_classification_prompt("Acme", "builds bridges", "construction contractor")
    reasoned = build_classification_prompt(
        "Acme", "builds bridges", "construction contractor", reasoning=True
    )
    assert reasoned.question == REASONING_PREAMBLE + " " + plain.question
    assert reasoned.system == plain.system
    assert reasoned.user == plain.user


def test_substitution_is_single_pass():
    tricky = "look at {industry} here"
    triple = build_extraction_prompt(tricky, "mining")
    assert "look at {industry} here" in triple.user
    assert "mining" in triple.question


_PLACEHOLDER_NAMES = ("news", "industry", "company_name", "company_description", "company_category")
# Replacement escapes, placeholders of this and the other template and of
# neither, lone braces, non-ASCII text and U+2028 (a line break to
# str.splitlines, not to the regex).
_HOSTILE_VALUES = (
    "\\1", "\\g<0>", "\\", "{news}", "{company_name}", "{unknown}", "{", "}",
    "}{industry}{", "Z\u00fcrich \u2014 \u6771\u4eac", "line\u2028break", "", "plain",
)
_HOSTILE_TEMPLATE = PromptTemplate(
    system="{news}{news} {{industry}} \\1 \\g<0>",
    user="a {unknown} { } {company_name {company_name}",
    question="{company_category}}? \u2028 \u00fc {news}{",
)


def _hostile_value_sets():
    rng = random.Random(15)
    sets = [dict.fromkeys(_PLACEHOLDER_NAMES, value) for value in _HOSTILE_VALUES]
    for _ in range(300):
        # some names get no value, so their placeholders stay as written
        names = [name for name in _PLACEHOLDER_NAMES if rng.random() < 0.8]
        sets.append({
            name: "".join(rng.choices(_HOSTILE_VALUES, k=rng.randint(1, 3))) for name in names
        })
    return sets


@pytest.mark.parametrize("reasoning", [False, True], ids=["plain", "reasoning"])
@pytest.mark.parametrize(
    "template", [EXTRACTION_TEMPLATE, CLASSIFICATION_TEMPLATE, _HOSTILE_TEMPLATE],
    ids=["extraction", "classification", "hostile"],
)
def test_render_matches_regex_reference(template, reasoning):
    for values in _hostile_value_sets():
        triple = template.render(values, reasoning=reasoning)
        expected = oracles.render_by_regex(template, values, reasoning)
        assert (triple.system, triple.user, triple.question) == expected, values


def test_render_leaves_unknown_placeholders_as_written():
    triple = _HOSTILE_TEMPLATE.render({"news": "\\1{industry}"})
    assert triple.system == "\\1{industry}\\1{industry} {{industry}} \\1 \\g<0>"
    assert triple.user == "a {unknown} { } {company_name {company_name}"
    assert triple.question == "{company_category}}? \u2028 \u00fc \\1{industry}{"


def test_prompt_builders_reject_empty_inputs():
    with pytest.raises(ValueError):
        build_extraction_prompt("", "civil engineering")
    with pytest.raises(ValueError):
        build_extraction_prompt("news.", " ")
    with pytest.raises(ValueError):
        build_classification_prompt("", "d", "c")
    with pytest.raises(ValueError):
        build_classification_prompt("n", "", "c")
    with pytest.raises(ValueError):
        build_classification_prompt("n", "d", "")
