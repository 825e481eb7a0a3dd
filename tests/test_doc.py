import io
import json
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import doc as doc_module
from bioling.cli import _iter_doc_lines
from bioling.doc import (
    Document, SentenceSpan, Token, detokenize, from_json_obj, json_line,
)
from bioling.lines import Lines
from bioling.segmenter import segment
from bioling.tokenizer import tokenize

from conftest import to_json_obj

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


# A document is valid when its JSON round trip gives it back: from_json_obj
# rebuilds surfaces and whitespace from the text and checks the spans and
# the sentence tiling, raising ValueError, which `python -O` keeps.

def test_validate_accepts_tokenizer_output():
    doc = tokenize("  Mice (n=3) were treated.\n")
    assert from_json_obj(to_json_obj(doc)) == doc


def test_validate_rejects_bad_surface():
    doc = Document("abc", (Token("x", 0, 1, ""), Token("bc", 1, 3, "")))
    assert from_json_obj(to_json_obj(doc)) != doc


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
    restored = [d for _, d, _ in _iter_doc_lines(Lines(buf, "docs.jsonl"))]
    assert restored == docs


@pytest.mark.parametrize("text, spans, match", [
    ("cancer", [(0, 99)], "token 0: span"),
    ("cancer", [(-1, 3)], "token 0: span [-1, 3) starts before the text"),
    ("cancer cell", [(0, 0), (0, 6)], "token 0: span"),
    ("cancer cell", [(0, 6), (4, 11)], "token 1: span"),
    ("cancer cell", [(0, 6), (7, 11), (0, 6)], "token 2: span"),
    ("cancer cell", [(0, 3), (7, 11)], "token 1: non-whitespace"),
    ("cancer cell", [(7, 11)], "token 0: non-whitespace"),
    ("cancer cell", [(0, 6)], "token 0: non-whitespace text after"),
    ("cancer", [(0, "6")], "token 0: start and end must be integers"),
    # JSON booleans decode to bool, an int subclass
    ("cancer", [(False, 6)], "token 0: start and end must be integers"),
    ("a", [(False, True)], "token 0: start and end must be integers"),
    # an item without both keys, or not an object
    ("ab", [(0,)], "token 0: needs 'start' and 'end'"),
    ("ab", [{"end": 1}], "token 0: needs 'start' and 'end'"),
    ("ab", [1], "token 0: needs 'start' and 'end'"),
    ("ab", [None], "token 0: needs 'start' and 'end'"),
    ("ab", ["start"], "token 0: needs 'start' and 'end'"),
    ("ab", [[0, 1]], "token 0: needs 'start' and 'end'"),
    ("cancer cell", [(0, 6), (7,)], "token 1: needs 'start' and 'end'"),
    # the first faulty token is named, whatever follows it
    ("ab", [(5, 9), 7], "token 0: span"),
    # a "tokens" field that is not a list
    ("ab", None, "'tokens' must be a list"),
    ("ab", {"start": 0, "end": 2}, "'tokens' must be a list"),
    ("ab", "[]", "'tokens' must be a list"),
    # a negative start after a good token
    ("cancer cell", [(0, 6), (-1, 11)], "token 1: span [-1, 11) starts before the text"),
])
def test_from_json_obj_rejects_bad_spans(text, spans, match):
    obj = {"text": text, "tokens": json_items(spans, ("start", "end"))}
    with pytest.raises(ValueError, match=re.escape(match)):
        from_json_obj(obj)


@pytest.mark.parametrize("sentences, match", [
    ([(0, 9)], "sentence 0: tokens"),
    ([(1, 2)], "sentence 0: tokens"),
    ([(0, 0), (2, 2)], "sentence 1: tokens"),
    ([(0, 1), (1, 2)], "sentence 1: tokens"),
    ([(0, 2), (3, 2)], "sentence 1: tokens"),
    ([(0, 1)], "sentence 0: ends before the last token"),
    # JSON booleans decode to bool, an int subclass
    ([(False, 2)], "sentence 0: first_token and last_token must be integers"),
    ([(0, True), (2, 2)], "sentence 0: first_token and last_token must be integers"),
    # an item without both keys, or not an object
    ([(0,)], "sentence 0: needs 'first_token' and 'last_token'"),
    ([{"last_token": 2}], "sentence 0: needs 'first_token' and 'last_token'"),
    ([1], "sentence 0: needs 'first_token' and 'last_token'"),
    ([None], "sentence 0: needs 'first_token' and 'last_token'"),
    (["first_token"], "sentence 0: needs 'first_token' and 'last_token'"),
    ([(0, 0), [1, 2]], "sentence 1: needs 'first_token' and 'last_token'"),
    # the first faulty sentence is named, whatever follows it
    ([(0, 9), 7], "sentence 0: tokens"),
    # a "sentences" field that is not a list
    (None, "'sentences' must be a list"),
    ({"first_token": 0, "last_token": 2}, "'sentences' must be a list"),
    (3, "'sentences' must be a list"),
    # a bound that is not an integer is a type fault, as for a token
    ([(0, {})], "sentence 0: first_token and last_token must be integers"),
    ([(0, 0), (True, 2)], "sentence 1: first_token and last_token must be integers"),
])
def test_from_json_obj_rejects_bad_sentences(sentences, match):
    obj = to_json_obj(tokenize("Heat shock rose"))
    obj["sentences"] = json_items(sentences, ("first_token", "last_token"))
    with pytest.raises(ValueError, match=match):
        from_json_obj(obj)


def json_items(items, keys):
    """`items` as the value of a JSON list field: each tuple an object of
    `keys` (a 1-tuple lacks the second key), any other item, and `items`
    itself if not a list, as it is."""
    if not isinstance(items, list):
        return items
    return [dict(zip(keys, item)) if isinstance(item, tuple) else item for item in items]


@pytest.mark.parametrize("mentions, match", [
    (5, "'mentions' must be a list"),
    ({"start": 0, "end": 3}, "'mentions' must be a list"),
    (None, "'mentions' must be a list"),
    # an item not an object, or without both keys
    ([5], "mention 0: needs 'start' and 'end'"),
    (["start"], "mention 0: needs 'start' and 'end'"),
    ([[0, 3]], "mention 0: needs 'start' and 'end'"),
    ([(0,)], "mention 0: needs 'start' and 'end'"),
    ([{"end": 3}], "mention 0: needs 'start' and 'end'"),
    # offsets that are not JSON integers
    ([(0, 3.0)], "mention 0: start and end must be integers"),
    ([(True, 3)], "mention 0: start and end must be integers"),
    ([(0, "3")], "mention 0: start and end must be integers"),
    # an empty span, or one reaching past the text or before it
    ([(2, 2)], "mention 0: span [2, 2) is empty or past the end of the text (3)"),
    ([(2, 1)], "mention 0: span [2, 1)"),
    ([(0, 4)], "mention 0: span [0, 4) is empty or past the end of the text (3)"),
    ([(-1, 2)], "mention 0: span [-1, 2) starts before the text"),
    # the first faulty mention is named, whatever follows it
    ([(0, 1), (0, 9), 7], "mention 1: span [0, 9)"),
    ([(0, 3), (2,)], "mention 1: needs 'start' and 'end'"),
])
def test_from_json_obj_rejects_bad_mentions(mentions, match):
    obj = {"text": "A b", "mentions": json_items(mentions, ("start", "end"))}
    with pytest.raises(ValueError, match=re.escape(match)):
        from_json_obj(obj)


def test_from_json_obj_accepts_mentions_in_any_order_and_overlapping():
    doc = tokenize("heat shock protein")
    obj = {**to_json_obj(doc), "mentions": [{"start": 5, "end": 18}, {"start": 0, "end": 10},
                                            {"start": 0, "end": 10}, {"start": 0, "end": 18}]}
    assert from_json_obj(obj) == doc


@pytest.mark.parametrize("tokens, match", [
    ([{"start": 0, "end": 99}, {"start": 1}], "token 0: span"),
    ([{"start": 7, "end": 11}, {"end": 6}], "token 0: non-whitespace text before"),
    ([{"start": 0, "end": "6"}, 5], "token 0: start and end must be integers"),
    ([{"start": 0, "end": 6}, {"start": 4, "end": 11}, ["start"]], "token 1: span"),
], ids=["out of range", "text before", "not integers", "overlap"])
def test_from_json_obj_names_the_first_faulty_token(tokens, match):
    """A fault in a token's span is reported before a later token without
    "start" or "end": the tokens are checked in one pass, in order."""
    with pytest.raises(ValueError, match=match):
        from_json_obj({"text": "cancer cell", "tokens": tokens})


@pytest.mark.parametrize("obj, match", [
    ({}, "'text' must be a string"),
    ({"text": None}, "'text' must be a string"),
    ({"text": ["ab"]}, "'text' must be a string"),
    ({"tokens": "x", "sentences": "x"}, "'text' must be a string"),
    ({"text": "ab", "tokens": "x", "sentences": "x"}, "'tokens' must be a list"),
    ({"text": "ab", "tokens": [1], "sentences": "x"}, "token 0: needs"),
    ({"text": "ab", "tokens": [{"start": 0, "end": 1}], "sentences": "x"},
     "token 0: non-whitespace text after"),
    ({"text": "ab", "tokens": [{"start": 0, "end": 2}], "sentences": "x"},
     "'sentences' must be a list"),
    ({"text": "ab", "sentences": [{"first_token": 0, "last_token": 0}]}, "sentence 0: tokens"),
    ({"text": "ab", "tokens": [{"start": 0, "end": 9}], "mentions": 5}, "token 0: span"),
    ({"text": "ab", "sentences": [1], "mentions": [5]}, "sentence 0: needs"),
    ({"tokens": [1], "mentions": 5}, "'text' must be a string"),
    ({"text": "ab", "tokens": [{"start": 0, "end": 2}], "mentions": [{"start": 0, "end": 9}]},
     "mention 0: span"),
])
def test_from_json_obj_names_the_first_faulty_field(obj, match):
    """Fields are checked in the order text, tokens, sentences, mentions."""
    with pytest.raises(ValueError, match=match):
        from_json_obj(obj)


# document objects whose fields and items are arbitrary JSON values, but
# often of the right type: a short text, objects with integer offsets, and
# objects with some of the keys, each holding any value
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_OFFSET = st.integers(-1, 5)


def _items(*keys):
    item = (st.fixed_dictionaries(dict.fromkeys(keys, _OFFSET))
            | st.fixed_dictionaries({}, optional=dict.fromkeys(keys, _OFFSET | _JSON)) | _JSON)
    return st.lists(item, max_size=6) | _JSON


_SPANS = {"tokens": _items("start", "end"), "sentences": _items("first_token", "last_token"),
          "mentions": _items("start", "end")}
_DOC_OBJECTS = (st.fixed_dictionaries({"text": st.text(alphabet=" ab", max_size=5)},
                                      optional=_SPANS)
                | st.fixed_dictionaries({}, optional={"text": _JSON, **_SPANS}))


@settings(max_examples=500, deadline=None)
@given(_DOC_OBJECTS)
@example({"text": "ab", "tokens": [{"start": 0}]})
@example({"text": "ab", "tokens": [{"start": 5, "end": 9}, 7]})
@example({"text": "ab", "tokens": [{"start": 0, "end": 2}], "sentences": [{"first_token": 0}]})
@example(to_json_obj(segment(tokenize(" Heat shock (HSP) rose. It fell. "))))
@example({"text": "ab", "mentions": [{"start": 1, "end": 2}, {"start": 0, "end": 2.0}]})
def test_from_json_obj_raises_only_value_error_naming_its_subject(obj):
    """A document, or a ValueError naming 'text', 'tokens', 'sentences',
    'mentions', a token, a sentence or a mention; no other exception
    escapes."""
    try:
        doc = from_json_obj(obj)
    except ValueError as exc:
        assert re.match(r"'(text|tokens|sentences|mentions)' must be "
                        r"|(token|sentence|mention) \d+: ", str(exc))
    else:
        assert isinstance(doc, Document)
        assert from_json_obj(json.loads("".join(json_line(doc)))) == doc


# the tracemalloc peak of `from_json_obj` per token of a ~100k-token
# segmented document: 134 bytes, against 198 building a list of every span
# before the first token (Python 3.11)
FROM_JSON_OBJ_PEAK_PER_TOKEN = 165


def test_from_json_obj_memory():
    doc = segment(tokenize("Levels of IL-2 (interleukin-2) rose 5-fold in mice [3]. " * 7_000))
    obj = json.loads("".join(json_line(doc)))
    assert len(doc.tokens) > 90_000
    tracemalloc.start()
    try:
        restored = from_json_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert restored == doc
    assert peak / len(doc.tokens) < FROM_JSON_OBJ_PEAK_PER_TOKEN


def test_from_json_obj_accepts_whitespace_gaps():
    obj = {"text": " a\tb \n", "tokens": [{"start": 1, "end": 2},
                                          {"start": 3, "end": 4}]}
    doc = from_json_obj(obj)
    assert from_json_obj(to_json_obj(doc)) == doc
    assert doc.leading_ws == " " and doc.tokens[-1].trailing_ws == " \n"


def test_sentence_char_span():
    doc = tokenize("One two. Three.")
    doc = doc.with_sentences([SentenceSpan(0, 2), SentenceSpan(3, 4)])
    start, end = doc.sentence_char_span(doc.sentences[0])
    assert doc.text[start:end] == "One two."
    assert doc.sentence_char_span(doc.sentences[1]) == (9, 15)


# -- the JSON line writer -------------------------------------------------
# `json_line` formats the spans itself; `json.dumps` of the oracle object is
# the reference for every byte, JSON escapes of control characters,
# quotes and backslashes included, and non-ASCII text written as itself.

JSON_TEXT = st.text(alphabet=st.characters(
    codec="utf-8", categories=("L", "N", "P", "S", "Zs", "Cc"),
    include_characters='\x00\x1f\x7f  "\\/.()αβµ\U0001F600',
), max_size=200)


def oracle_line(doc: Document) -> str:
    return json.dumps(to_json_obj(doc), ensure_ascii=False) + "\n"


@given(JSON_TEXT, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
@example("  Heat shock protein (HSP) rose.\tSee Fig. 2.\n", 1)
@example('x\x00"y\\z\x1f é 😀. Next one.', 2)
def test_json_line_equals_oracle(s, block):
    """Token and sentence lists of any length, cut into blocks of 1-4
    spans, and documents with and without sentences."""
    with mock.patch.object(doc_module, "_JSON_BLOCK", block):
        for doc in (tokenize(s), segment(tokenize(s))):
            line = "".join(json_line(doc))
            assert line == oracle_line(doc)
            assert from_json_obj(json.loads(line)) == doc


def test_json_line_of_documents_without_spans():
    for doc in (Document(""), Document(" \t"), tokenize("")):
        assert "".join(json_line(doc)) == oracle_line(doc)
    assert "".join(json_line(Document("é"))) == '{"text": "é", "tokens": [], "sentences": []}\n'


def test_json_line_writes_tokens_a_block_at_a_time():
    doc = tokenize(" ".join(["a"] * (2 * doc_module._JSON_BLOCK + 1)))
    pieces = list(json_line(doc))
    tokens = pieces[pieces.index(', "tokens": ') + 1:pieces.index(', "sentences": ')]
    per_piece = [piece.count('"start"') for piece in tokens]
    assert [n for n in per_piece if n] == [doc_module._JSON_BLOCK, doc_module._JSON_BLOCK, 1]
    assert "".join(pieces) == oracle_line(doc)
