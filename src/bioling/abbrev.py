r"""Unsupervised (short form, long form) abbreviation detection.

Implements the classic right-to-left character matcher over parenthesized
candidates: each character of the short form must be found in the
preceding window moving leftward, and the first character must start a
word. The long form is the shortest window suffix satisfying the match.

Candidates are the innermost parentheticals of each sentence, found by
one regex, `\(([^()]*)\)`: a match is a pair with no parenthesis between
its ends, and its content is stripped of whitespace in Python. The
sentence's words are read once, left to right, up to each parenthetical
in turn (the last one cut at the parenthesis), and both the "long form
(SF)" and the mirrored "SF (long form)" patterns read them.
"""

from __future__ import annotations

import re
from typing import Iterable

from .doc import AbbreviationPair, Document, MentionSpan

_WORD_RE = re.compile(r"\S+")
_PAREN_RE = re.compile(r"\(([^()]*)\)")

_MIN_SF_LEN = 2
_MAX_SF_LEN = 10
_MAX_SF_WORDS = 2
# characters of a long-form window that `_best_long_form_start` lowers
# first; each later block is twice the one before
_LOWER_BLOCK = 256


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


def _best_long_form_start(short_form: str, text: str, start: int = 0,
                          end: int | None = None) -> int | None:
    """Start in `text` of the shortest matching suffix of the window
    `text[start:end]`, or None.

    Characters compare lowered one at a time, and the scan reads the window
    from its end only as far as it must: blocks of it, each twice the one
    before, are lowered as it reaches them. An ASCII block is lowered whole,
    which is the same; other blocks are not, since "İ" lowers to two code
    points and a word-final "Σ" to "ς", not "σ"."""
    if end is None:
        end = len(text)
    sf = short_form.lower() if short_form.isascii() else [c.lower() for c in short_form]
    # `lowered` is the block text[lo:hi] that the scan is in, lowered; the
    # scan is at text[lo + i], and the next block takes `size` characters
    lowered, lo, size = "", end, _LOWER_BLOCK
    s = len(short_form) - 1
    i = -1
    while s >= 0:
        c = sf[s]
        if not c.isalnum():
            s -= 1
            continue
        while True:
            while i >= 0 and (
                lowered[i] != c
                or (s == 0 and lo + i > start and text[lo + i - 1].isalnum())
            ):
                i -= 1
            if i >= 0:
                break
            if lo == start:
                return None
            hi, lo = lo, max(start, lo - size)
            size *= 2
            block = text[lo:hi]
            lowered = block.lower() if block.isascii() else [ch.lower() for ch in block]
            i = hi - lo - 1
        s -= 1
        i -= 1
    return lo + i + 1


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


def _extract_pair(
    text: str, sf_start: int, sf_end: int, window_start: int, window_end: int
) -> AbbreviationPair | None:
    short_form = text[sf_start:sf_end]
    # the window with its trailing whitespace stripped, read in place: it
    # may start far back, at the start of a word of many parentheticals
    while window_end > window_start and text[window_end - 1].isspace():
        window_end -= 1
    lf_start = _best_long_form_start(short_form, text, window_start, window_end)
    if lf_start is None:
        return None
    long_form = text[lf_start:window_end]
    if not _validate_pair(short_form, long_form):
        return None
    return AbbreviationPair(
        MentionSpan(sf_start, sf_end, short_form),
        MentionSpan(lf_start, window_end, long_form),
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

    text = doc.text
    pairs: list[AbbreviationPair] = []
    for region_start, region_end in regions:
        # the region's words that start before the current "(", each read
        # once; the next may start at `pos`
        words: list[re.Match] = []
        pos = region_start
        for m in _PAREN_RE.finditer(text, region_start, region_end):
            content = m.group(1)
            c_start = m.start(1) + len(content) - len(content.lstrip())
            content = content.strip()
            if not content:
                continue
            c_end = c_start + len(content)
            lp = m.start()
            if pos < lp:
                words += _WORD_RE.finditer(text, pos, lp)
                # a word cut at the parenthesis goes on past it
                pos = lp if text[lp - 1].isspace() else _WORD_RE.match(text, lp, region_end).end()
            if not words:
                continue
            if _is_valid_short_form(content):
                wstart = words[max(0, len(words) - _max_long_form_words(content))].start()
                pair = _extract_pair(text, c_start, c_end, wstart, lp)
            else:
                # mirrored pattern: the word before the parenthesis is the
                # short form, the parenthetical holds the definition. Its
                # tail is stripped back from the parenthesis, whitespace and
                # then ".,;:", and only a short one is sliced: a word of many
                # parentheticals would be sliced whole at each of them
                prev, end = words[-1].start(), lp
                while end > prev and text[end - 1].isspace():
                    end -= 1
                while end > prev and text[end - 1] in ".,;:":
                    end -= 1
                if end - prev > _MAX_SF_LEN:
                    continue
                candidate = text[prev:end]
                if not _is_valid_short_form(candidate):
                    continue
                pair = _extract_pair(text, prev, end, c_start, c_end)
            if pair is not None:
                pairs.append(pair)
    return pairs


def expansion_map(pairs: Iterable[AbbreviationPair]) -> dict[str, str]:
    """Document-scoped short-form -> long-form map; first definition wins."""
    out: dict[str, str] = {}
    for pair in pairs:
        out.setdefault(pair.short_form.surface, pair.long_form.surface)
    return out
