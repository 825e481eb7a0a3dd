"""Unsupervised (short form, long form) abbreviation detection.

Implements the classic right-to-left character matcher over parenthesized
candidates: each character of the short form must be found in the
preceding window moving leftward, and the first character must start a
word. The long form is the shortest window suffix satisfying the match.

Candidates are the innermost parentheticals of each sentence, found by
one regex scan for parentheses rather than a walk over every character.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .doc import AbbreviationPair, Document, MentionSpan

_WORD_RE = re.compile(r"\S+")
_PAREN_RE = re.compile(r"[()]")

_MIN_SF_LEN = 2
_MAX_SF_LEN = 10
_MAX_SF_WORDS = 2


def _is_valid_short_form(s: str) -> bool:
    if not (_MIN_SF_LEN <= len(s) <= _MAX_SF_LEN):
        return False
    if len(s.split()) > _MAX_SF_WORDS:
        return False
    if not any(c.isalpha() for c in s):
        return False
    return s[0].isalnum()


def _max_long_form_words(short_form: str) -> int:
    return min(len(short_form) + 5, len(short_form) * 2)


def _best_long_form_start(short_form: str, window: str) -> int | None:
    """Start index in `window` of the shortest matching suffix, or None."""
    s = len(short_form) - 1
    l = len(window) - 1
    while s >= 0:
        c = short_form[s].lower()
        if not c.isalnum():
            s -= 1
            continue
        while l >= 0 and (
            window[l].lower() != c
            or (s == 0 and l > 0 and window[l - 1].isalnum())
        ):
            l -= 1
        if l < 0:
            return None
        s -= 1
        l -= 1
    return l + 1


def _validate_pair(short_form: str, long_form: str) -> bool:
    if len(long_form) <= len(short_form):
        return False
    words = long_form.split()
    if len(words) > _max_long_form_words(short_form):
        return False
    # reject degenerate definitions that just repeat the abbreviation
    sf_lower = short_form.lower()
    if any(w.lower() == sf_lower for w in words):
        return False
    return True


def _innermost_parens(text: str, start: int, end: int) -> list[tuple[int, int]]:
    """(open, close) offsets of parentheticals with no nested pair inside."""
    pairs = []
    stack = []
    for m in _PAREN_RE.finditer(text, start, end):
        i = m.start()
        if m.group() == "(":
            stack.append(i)
        elif stack:
            lp = stack.pop()
            if not any(lp < p[0] and p[1] < i for p in pairs):
                pairs.append((lp, i))
    return pairs


def _window_before(text: str, region_start: int, lp: int, max_words: int) -> int:
    """Start offset of the up-to-max_words words preceding offset lp."""
    words = list(_WORD_RE.finditer(text, region_start, lp))
    if not words:
        return lp
    return words[max(0, len(words) - max_words)].start()


def _extract_pair(
    text: str, sf_start: int, sf_end: int, window_start: int, window_end: int
) -> AbbreviationPair | None:
    short_form = text[sf_start:sf_end]
    window = text[window_start:window_end].rstrip()
    if not window:
        return None
    lf_rel = _best_long_form_start(short_form, window)
    if lf_rel is None:
        return None
    long_form = window[lf_rel:]
    if not _validate_pair(short_form, long_form):
        return None
    lf_start = window_start + lf_rel
    return AbbreviationPair(
        MentionSpan(sf_start, sf_end, short_form),
        MentionSpan(lf_start, lf_start + len(long_form), long_form),
    )


def find_abbreviations(doc: Document) -> list[AbbreviationPair]:
    """All (short form, long form) pairs, in document order.

    Handles the standard "long form (SF)" pattern and the mirrored
    "SF (long form)" pattern. Sentences are processed independently; if
    the document has no sentence spans, the whole text is one region.
    """
    if doc.sentences:
        regions = [doc.sentence_char_span(s) for s in doc.sentences]
    else:
        regions = [(0, len(doc.text))]

    pairs: list[AbbreviationPair] = []
    for region_start, region_end in regions:
        for lp, rp in sorted(_innermost_parens(doc.text, region_start, region_end)):
            content = doc.text[lp + 1:rp].strip()
            if not content:
                continue
            c_start = lp + 1 + (len(doc.text[lp + 1:rp]) - len(doc.text[lp + 1:rp].lstrip()))
            c_end = c_start + len(content)
            if _is_valid_short_form(content):
                wstart = _window_before(
                    doc.text, region_start, lp, _max_long_form_words(content)
                )
                pair = _extract_pair(doc.text, c_start, c_end, wstart, lp)
                if pair is not None:
                    pairs.append(pair)
                continue
            # mirrored pattern: the token before the parenthesis is the
            # short form, the parenthetical holds the definition
            words = list(_WORD_RE.finditer(doc.text, region_start, lp))
            if not words:
                continue
            prev = words[-1]
            candidate = prev.group().rstrip(".,;:")
            if _is_valid_short_form(candidate):
                pair = _extract_pair(
                    doc.text,
                    prev.start(), prev.start() + len(candidate),
                    c_start, c_end,
                )
                if pair is not None:
                    pairs.append(pair)
    return pairs


def expansion_map(pairs: Iterable[AbbreviationPair]) -> dict[str, str]:
    """Document-scoped short-form -> long-form map; first definition wins."""
    out: dict[str, str] = {}
    for pair in pairs:
        out.setdefault(pair.short_form.surface, pair.long_form.surface)
    return out
