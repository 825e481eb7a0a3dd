"""Offset-anchored document model.

The raw text is the ground truth: every token, sentence and mention is a
span into it, and concatenating token surfaces with their recorded
whitespace reproduces the original string exactly. Offsets are Unicode
code point indices, not bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    trailing_ws: str = ""


@dataclass(frozen=True)
class SentenceSpan:
    first_token: int  # inclusive
    last_token: int   # inclusive


@dataclass(frozen=True)
class MentionSpan:
    start: int
    end: int
    surface: str


@dataclass(frozen=True)
class AbbreviationPair:
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

    def sentence_text(self, span: SentenceSpan) -> str:
        first = self.tokens[span.first_token]
        last = self.tokens[span.last_token]
        return self.text[first.start:last.end]

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


def validate_document(doc: Document) -> None:
    """Check all structural invariants; raises AssertionError on violation.

    Intended for tests and debug paths, not hot loops.
    """
    prev_end = len(doc.leading_ws)
    assert doc.text.startswith(doc.leading_ws)
    for tok in doc.tokens:
        assert 0 <= tok.start < tok.end <= len(doc.text), tok
        assert tok.start == prev_end, (tok, prev_end)
        assert tok.surface == doc.text[tok.start:tok.end], tok
        assert tok.trailing_ws == "" or tok.trailing_ws.isspace(), tok
        assert doc.text[tok.end:tok.end + len(tok.trailing_ws)] == tok.trailing_ws
        prev_end = tok.end + len(tok.trailing_ws)
    assert prev_end == len(doc.text)
    assert detokenize(doc) == doc.text

    if doc.sentences:
        assert doc.sentences[0].first_token == 0
        assert doc.sentences[-1].last_token == len(doc.tokens) - 1
        prev_last = -1
        for sent in doc.sentences:
            assert sent.first_token == prev_last + 1
            assert sent.first_token <= sent.last_token
            prev_last = sent.last_token


def to_json_obj(doc: Document) -> dict:
    return {
        "text": doc.text,
        "tokens": [{"start": t.start, "end": t.end} for t in doc.tokens],
        "sentences": [
            {"first_token": s.first_token, "last_token": s.last_token}
            for s in doc.sentences
        ],
    }


def from_json_obj(obj: dict) -> Document:
    """Rebuild a Document from its JSON form.

    Surfaces and whitespace are recovered from the text and the spans.
    Raises ValueError, naming the token, on a span that is out of range,
    empty or not after the previous one, or on non-whitespace text before,
    between or after the tokens; and, naming the sentence, on sentences
    that do not cover the tokens in order without gaps or overlaps.
    """
    text = obj["text"]
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    spans = [(t["start"], t["end"]) for t in obj.get("tokens", [])]
    prev_end = 0
    for i, (start, end) in enumerate(spans):
        if not (isinstance(start, int) and isinstance(end, int)):
            raise ValueError(f"token {i}: start and end must be integers")
        if not prev_end <= start < end <= len(text):
            raise ValueError(
                f"token {i}: span [{start}, {end}) is empty, past the end of the "
                f"text ({len(text)}) or overlaps the previous token")
        if text[prev_end:start].strip():
            raise ValueError(f"token {i}: non-whitespace text before it")
        prev_end = end
    if spans and text[prev_end:].strip():
        raise ValueError(f"token {len(spans) - 1}: non-whitespace text after it")
    tokens = []
    for i, (start, end) in enumerate(spans):
        nxt = spans[i + 1][0] if i + 1 < len(spans) else len(text)
        tokens.append(Token(text[start:end], start, end, text[end:nxt]))
    leading = text[:spans[0][0]] if spans else text
    sentences = tuple(
        SentenceSpan(s["first_token"], s["last_token"])
        for s in obj.get("sentences", [])
    )
    next_first = 0
    for i, s in enumerate(sentences):
        if not (isinstance(s.first_token, int) and isinstance(s.last_token, int)
                and next_first == s.first_token <= s.last_token < len(tokens)):
            raise ValueError(
                f"sentence {i}: tokens [{s.first_token}, {s.last_token}] do not "
                f"start at token {next_first} or lie outside the {len(tokens)} tokens")
        next_first = s.last_token + 1
    if sentences and next_first != len(tokens):
        raise ValueError(f"sentence {len(sentences) - 1}: ends before the last token")
    return Document(text, tuple(tokens), sentences, leading)

