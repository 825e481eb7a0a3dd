import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioling.cli import _iter_doc_lines
from bioling.doc import (
    Document, SentenceSpan, Token, detokenize, from_json_obj,
    to_json_obj, validate_document,
)
from bioling.tokenizer import tokenize

TEXT_ALPHABET = st.characters(
    codec="utf-8", categories=("L", "N", "P", "S", "Zs"),
    include_characters=" \t\n.()[]{}<>/%-αβγµ",
)
texts = st.text(alphabet=TEXT_ALPHABET, max_size=200)


def test_detokenize_empty():
    assert detokenize(Document("")) == ""


def test_detokenize_preserves_whitespace():
    doc = Document(
        "a  b",
        (Token("a", 0, 1, "  "), Token("b", 3, 4, "")),
    )
    assert detokenize(doc) == "a  b"


def test_detokenize_round_trip_after_tokenize():
    s = "IL-2 (interleukin-2)."
    assert detokenize(tokenize(s)) == s


def test_validate_accepts_tokenizer_output():
    validate_document(tokenize("  Mice (n=3) were treated.\n"))


def test_validate_rejects_bad_surface():
    doc = Document("abc", (Token("x", 0, 1, ""), Token("bc", 1, 3, "")))
    with pytest.raises(AssertionError):
        validate_document(doc)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_round_trip_property(s):
    assert detokenize(tokenize(s)) == s


@given(texts)
@settings(max_examples=100, deadline=None)
def test_span_extraction_is_stable(s):
    doc = tokenize(s)
    spans_a = [(t.start, t.end) for t in doc.tokens]
    spans_b = [(t.start, t.end) for t in tokenize(s).tokens]
    assert spans_a == spans_b
    for t in doc.tokens:
        assert doc.text[t.start:t.end] == t.surface


def test_json_round_trip():
    doc = tokenize("  Heat shock protein (HSP) is induced. See Fig. 2.")
    doc = doc.with_sentences([SentenceSpan(0, len(doc.tokens) - 1)])
    for d in (doc, tokenize("")):
        assert from_json_obj(to_json_obj(d)) == d


def test_jsonl_io_round_trip():
    # Documents written one JSON object per line come back unchanged from
    # the reader every CLI command uses.
    docs = [tokenize("First doc."), tokenize("Second (doc)."), tokenize("")]
    buf = io.StringIO("".join(
        json.dumps(to_json_obj(d), ensure_ascii=False) + "\n" for d in docs))
    restored = [d for _, d, _ in _iter_doc_lines(buf)]
    assert restored == docs


@pytest.mark.parametrize("text, spans, match", [
    ("cancer", [(0, 99)], "token 0: span"),
    ("cancer", [(-1, 3)], "token 0: span"),
    ("cancer cell", [(0, 0), (0, 6)], "token 0: span"),
    ("cancer cell", [(0, 6), (4, 11)], "token 1: span"),
    ("cancer cell", [(0, 6), (7, 11), (0, 6)], "token 2: span"),
    ("cancer cell", [(0, 3), (7, 11)], "token 1: non-whitespace"),
    ("cancer cell", [(7, 11)], "token 0: non-whitespace"),
    ("cancer cell", [(0, 6)], "token 0: non-whitespace text after"),
    ("cancer", [(0, "6")], "token 0: start and end must be integers"),
])
def test_from_json_obj_rejects_bad_spans(text, spans, match):
    obj = {"text": text, "tokens": [{"start": a, "end": b} for a, b in spans]}
    with pytest.raises(ValueError, match=match):
        from_json_obj(obj)


@pytest.mark.parametrize("sentences, match", [
    ([(0, 9)], "sentence 0: tokens"),
    ([(1, 2)], "sentence 0: tokens"),
    ([(0, 0), (2, 2)], "sentence 1: tokens"),
    ([(0, 1), (1, 2)], "sentence 1: tokens"),
    ([(0, 2), (3, 2)], "sentence 1: tokens"),
    ([(0, 1)], "sentence 0: ends before the last token"),
])
def test_from_json_obj_rejects_bad_sentences(sentences, match):
    obj = to_json_obj(tokenize("Heat shock rose"))
    obj["sentences"] = [{"first_token": a, "last_token": b} for a, b in sentences]
    with pytest.raises(ValueError, match=match):
        from_json_obj(obj)


def test_from_json_obj_accepts_whitespace_gaps():
    obj = {"text": " a\tb \n", "tokens": [{"start": 1, "end": 2},
                                          {"start": 3, "end": 4}]}
    doc = from_json_obj(obj)
    validate_document(doc)
    assert doc.leading_ws == " " and doc.tokens[-1].trailing_ws == " \n"


def test_sentence_char_span():
    doc = tokenize("One two. Three.")
    doc = doc.with_sentences([SentenceSpan(0, 2), SentenceSpan(3, 4)])
    assert doc.sentence_text(doc.sentences[0]) == "One two."
    assert doc.sentence_char_span(doc.sentences[1]) == (9, 15)
