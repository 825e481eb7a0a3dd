import json
import pathlib
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import abbrev
from bioling.abbrev import (
    _PAREN_RE, expansion_map, find_abbreviations, _best_long_form_start,
    _is_valid_short_form, _validate_pair,
)
from bioling.segmenter import segment
from bioling.tokenizer import tokenize

from conftest import (
    check_match, reference_best_long_form_start, reference_find_abbreviations,
    reference_innermost_parens,
)

CASES_PATH = pathlib.Path(__file__).parent / "data" / "abbrev_cases.jsonl"


def load_cases():
    with open(CASES_PATH) as fp:
        return [json.loads(line) for line in fp if line.strip()]


def detect(text):
    doc = segment(tokenize(text))
    return [(p.short_form.surface, p.long_form.surface)
            for p in find_abbreviations(doc)]


@pytest.mark.parametrize(
    "case", load_cases(), ids=lambda c: c["text"][:40],
)
def test_curated_fixture(case):
    expected = [tuple(p) for p in case["pairs"]]
    assert detect(case["text"]) == expected


def test_fixture_has_thirty_cases():
    cases = load_cases()
    assert len(cases) == 30
    positives = [c for c in cases if c["pairs"]]
    negatives = [c for c in cases if not c["pairs"]]
    assert len(positives) >= 20 and len(negatives) >= 8


def test_pairs_carry_exact_offsets():
    text = "The heat shock protein (HSP) response was induced."
    pair = find_abbreviations(segment(tokenize(text)))[0]
    sf, lf = pair.short_form, pair.long_form
    assert text[sf.start:sf.end] == sf.surface == "HSP"
    assert text[lf.start:lf.end] == lf.surface == "heat shock protein"


def test_detected_pairs_pass_independent_recheck():
    for case in load_cases():
        for short_form, long_form in detect(case["text"]):
            assert check_match(short_form, long_form)
            assert _validate_pair(short_form, long_form)


def test_short_form_validity_bounds():
    assert _is_valid_short_form("AB")
    assert _is_valid_short_form("A" * 10)
    assert not _is_valid_short_form("A")
    assert not _is_valid_short_form("A" * 11)
    assert not _is_valid_short_form("one two three")  # 3 words
    assert not _is_valid_short_form("123")  # no letter
    assert not _is_valid_short_form("-AB")  # first char not alphanumeric
    assert _is_valid_short_form("n=47")


def test_matcher_requires_word_start_for_first_char():
    # 'h' occurs only word-internally, so HS cannot anchor
    assert _best_long_form_start("HS", "the push system") is None
    assert _best_long_form_start("HS", "the hot system") == 4


def test_matcher_picks_shortest_suffix():
    start = _best_long_form_start("TN", "a ten or another ten node")
    assert "a ten or another ten node"[start:] == "ten node"


def test_long_form_must_be_longer_than_short_form():
    assert not _validate_pair("ABCDEF", "ABC")
    assert not _validate_pair("AB", "AB")


def test_long_form_may_not_contain_short_form_word():
    assert not _validate_pair("TNF", "the TNF pathway")


def test_unsegmented_document_uses_whole_text():
    # without sentence spans the window may cross a sentence boundary
    text = "We measured protein. Kinase C (PKC) was elevated."
    assert detect(text) == []
    unsegmented = find_abbreviations(tokenize(text))
    assert [(p.short_form.surface, p.long_form.surface) for p in unsegmented] \
        == [("PKC", "protein. Kinase C")]


def test_expansion_map_first_definition_wins():
    text = ("The heat shock protein (HSP) level rose. "
            "A different heat stress peptide (HSP) was ignored.")
    pairs = find_abbreviations(segment(tokenize(text)))
    assert len(pairs) == 2
    assert expansion_map(pairs) == {"HSP": "heat shock protein"}


def test_document_order():
    text = ("Both heat shock protein (HSP) and tumor necrosis factor (TNF) "
            "were measured.")
    pairs = find_abbreviations(segment(tokenize(text)))
    assert [p.short_form.surface for p in pairs] == ["HSP", "TNF"]
    assert pairs[0].short_form.start < pairs[1].short_form.start


@st.composite
def text_and_window(draw):
    text = draw(st.text(alphabet="(() )a.\n", max_size=60))
    start = draw(st.integers(0, len(text)))
    return text, start, draw(st.integers(start, len(text)))


@given(text_and_window())
@settings(max_examples=400, deadline=None)
@example(("((a) (b)) (c", 0, 12))
@example(("(a)) ((b)", 1, 9))
@example(("((a)(b))", 1, 7))
def test_innermost_parens_equals_loop_oracle(case):
    text, start, end = case
    assert [(m.start(), m.end() - 1) for m in _PAREN_RE.finditer(text, start, end)] \
        == reference_innermost_parens(text, start, end)


# parentheses (listed twice, so drawn more often), the characters a
# mirrored short form is trimmed of, letters whose case mapping changes
# length or depends on position, digits, and whitespace that `str.strip`
# and `\s` both remove, non-ASCII kinds included
_ABBREV_ALPHABET = "()().,;:aAbBtTnNİΣσς12 \t\n\x1c\u3000"


@given(st.text(alphabet=_ABBREV_ALPHABET, max_size=80))
@settings(max_examples=400, deadline=None)
@example("It rose (in tumor necrosis factor (TNF) cells).")
@example("Tumor necrosis factor (  TNF ) rose; TNF (  tumor necrosis factor ).")
@example("Tumor necrosis factor (\u3000TNF\x1c) and TNF (\ttumor necrosis factor\n).")
@example("A blank ( ) and tumor necrosis factor (TNF).")
@example("An unclosed (tumor necrosis factor (TNF) rose.")
@example("A stray ) then tumor necrosis factor (TNF).")
@example("It rose: TNF; (tumor necrosis factor) and IL.,;: (inter leukin).")
# a word cut at "(" is one word to a later parenthetical's window
@example("Alpha beta(x) c (y) (AB) rose.")
# windows that are not ASCII: "İ" lowers to two code points, and a
# word-final "Σ" lowers to "ς" in a whole string but to "σ" alone
@example("İnterleukin beta (İB) and İ beta (IB) rose.")
@example("ΣΑΣ alpha (Σ A) and ΣΑΣ (σα) and alphaΣ (AΣ) and alphaΣ (aς) rose.")
def test_find_abbreviations_equals_reference(text):
    doc = tokenize(text)
    assert find_abbreviations(doc) == reference_find_abbreviations(doc)
    doc = segment(doc)
    assert find_abbreviations(doc) == reference_find_abbreviations(doc)


@given(st.text(alphabet="aAbBİΣσς1 -", max_size=6), st.text(alphabet="aAbBİΣσς1 -", max_size=30))
@settings(max_examples=400, deadline=None)
@example("aς", "alphaΣ")
@example("ib", "İ b")
@example("AB", "alpha beta")
def test_best_long_form_start_equals_reference(short_form, window):
    assert _best_long_form_start(short_form, window) \
        == reference_best_long_form_start(short_form, window)


@given(st.text(alphabet="aAbBİΣσς1 -", max_size=6), st.text(alphabet="aAbBİΣσς1 -", max_size=8),
       st.text(alphabet="aAbBİΣσς1 -", max_size=30), st.text(alphabet="aAbBİΣσς1 -", max_size=8),
       st.integers(1, 4))
@settings(max_examples=400, deadline=None)
# a letter just before the window does not stop its first one starting a word
@example("ab", "x", "a b", "", 1)
def test_best_long_form_start_in_text_equals_reference(short_form, before, window, after, block):
    """The window read in place in a longer text, in lowered blocks of 1-4
    characters and up, ASCII or not, gives the reference's start."""
    want = reference_best_long_form_start(short_form, window)
    with mock.patch.object(abbrev, "_LOWER_BLOCK", block):
        got = _best_long_form_start(short_form, before + window + after,
                                    len(before), len(before) + len(window))
    assert got == (None if want is None else len(before) + want)


# -- linear time: long lines ------------------------------------------------
# The earlier candidate search took over 10 s on each: its regex backtracked
# through a run of whitespace after "(", and it listed the words from the
# sentence start again for every parenthetical.

@pytest.mark.parametrize("text, n_pairs", [
    ("Levels rose (" + " " * 3_000 + "x", 0),
    ("a (b) " * 6_000, 0),
    ("tumor necrosis factor (TNF) " * 4_000, 4_000),
], ids=["unclosed parenthesis", "short parentheticals", "definitions"])
def test_long_line_takes_linear_time(text, n_pairs):
    doc = tokenize(text)
    t0 = time.perf_counter()
    pairs = find_abbreviations(doc)
    assert time.perf_counter() - t0 < 5.0
    assert len(pairs) == n_pairs


def test_word_of_many_parentheticals_takes_linear_time():
    """1 MB of one whitespace-free word with a parenthetical every four
    characters: the mirrored candidate once sliced the word from its start
    at each of them, 33 s in all; now well under a second (2-core VM)."""
    doc = segment(tokenize("x(1)" * 250_000))
    t0 = time.perf_counter()
    pairs = find_abbreviations(doc)
    assert time.perf_counter() - t0 < 5.0
    assert pairs == []


def test_word_of_many_short_forms_takes_linear_time():
    """1 MB of one whitespace-free word with a short form in parentheses
    every five characters: each window starts at the word's start, and it
    was once sliced and lowered whole at each of them, 2.1-2.8 s for 40k
    units; now 1.8-2.6 s for these 200k, reading a few characters back from
    each (2-core VM)."""
    doc = segment(tokenize("a(bc)" * 200_000))
    t0 = time.perf_counter()
    pairs = find_abbreviations(doc)
    assert time.perf_counter() - t0 < 5.0
    assert len(pairs) == 199_999
    assert (pairs[-1].short_form.surface, pairs[-1].long_form.surface) == ("bc", "bc)a")


def test_windows_start_at_the_word_not_the_last_parenthetical():
    """The second window reaches back past "(IL)" into its own word: a
    window starting at the previous parenthetical would lose the pair."""
    assert detect("Levels of interleukin (IL)-2 receptor (IL2R) rose.") \
        == [("IL", "interleukin"), ("IL2R", "IL)-2 receptor")]


@st.composite
def repeated_text(draw):
    """A short unit repeated up to a thousand times, between two short
    pieces of text: many parentheticals in one sentence, or long runs. The
    reference lists the words again for every parenthetical, so more
    repeats would make it, not the code under test, the slow part."""
    piece = st.text(alphabet=_ABBREV_ALPHABET, max_size=6)
    unit = draw(st.one_of(
        st.sampled_from(["a (b) ", "heat shock (HS) ", "HS (heat shock) ", "x(AB)", "( ", " "]),
        piece.filter(bool)))
    return draw(piece) + unit * draw(st.integers(1, 1000)) + draw(piece)


@given(repeated_text())
@settings(max_examples=20, deadline=None)
@example("(" + "a (b) " * 1000)
@example("x(1)" * 1000)
@example("TNF.,  (tumor necrosis factor)IL.;(interleukin) " * 100)
@example("x (TNF" + " " * 2000 + ") " + "tumor necrosis factor (TNF) " * 200)
def test_repeated_unit_equals_reference(text):
    doc = tokenize(text)
    assert find_abbreviations(doc) == reference_find_abbreviations(doc)
    doc = segment(doc)
    assert find_abbreviations(doc) == reference_find_abbreviations(doc)
