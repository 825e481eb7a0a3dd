"""Rule-based sentence segmenter hardened against citations.

Boundaries are placed after terminal punctuation (., !, ?) unless the
token is a known abbreviation, the position is inside an unclosed
bracket, a citation pattern immediately follows (it is attached to the
current sentence), or the following token fails the confirmation test
(uppercase / digit / opening bracket).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .doc import Document, SentenceSpan
from .tokenizer import _directives, default_biomedical_rules, tokenize

_TERMINALS = frozenset(".!?")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_NUM_LIST_RE = re.compile(r"[0-9][0-9,;–—-]*\Z")
_YEAR_RE = re.compile(r"(1[6-9]|20)\d\d[a-z]?\Z")
_CONFIRM_RE = re.compile(r'[A-Z0-9([{"“‘]')


@dataclass(frozen=True)
class SegmenterConfig:
    stoplist: frozenset[str] = frozenset()       # lowercased, period attached
    cite_bracket: bool = False
    cite_author_year: bool = False

    def __post_init__(self):
        for entry in self.stoplist:
            if not entry:
                raise ValueError("empty stoplist entry")


# directive -> whether it takes an argument
_SEGMENTER_DIRECTIVES = {
    "NOSPLIT": True, "CITE_BRACKET": False, "CITE_AUTHOR_YEAR": False,
}


def parse_segmenter_config(text: str) -> SegmenterConfig:
    """Parse the directive format: NOSPLIT / CITE_BRACKET / CITE_AUTHOR_YEAR."""
    stoplist: set[str] = set()
    flags: set[str] = set()
    for _, directive, arg in _directives(text, _SEGMENTER_DIRECTIVES):
        if directive == "NOSPLIT":
            stoplist.add(arg.lower())
        else:
            flags.add(directive)
    return SegmenterConfig(frozenset(stoplist), "CITE_BRACKET" in flags,
                           "CITE_AUTHOR_YEAR" in flags)


def load_segmenter_config(path: str) -> SegmenterConfig:
    with open(path, encoding="utf-8") as fp:
        return parse_segmenter_config(fp.read())


@lru_cache(maxsize=1)
def default_segmenter_config() -> SegmenterConfig:
    text = (resources.files("bioling.data") / "default_segmenter.txt").read_text("utf-8")
    return parse_segmenter_config(text)


def _match_bracket_citation(surfaces: Sequence[str], j: int) -> int | None:
    """Match "[ 1,2 ]"-style citations at token j; return index past "]"."""
    n = len(surfaces)
    if j >= n or surfaces[j] != "[":
        return None
    i = j + 1
    saw_number = False
    while i < n and _NUM_LIST_RE.fullmatch(surfaces[i]):
        saw_number = True
        i += 1
    if saw_number and i < n and surfaces[i] == "]":
        return i + 1
    return None


def _match_author_year_citation(surfaces: Sequence[str], j: int) -> int | None:
    """Match "( Name et al. , 2002 )"-style citations; return index past ")"."""
    n = len(surfaces)
    if j >= n or surfaces[j] != "(":
        return None
    # bounded scan: author-year citations are short
    for close in range(j + 2, min(j + 10, n)):
        if surfaces[close] == ")":
            content = surfaces[j + 1:close]
            if not content:
                return None
            first, last = content[0], content[-1]
            if first[:1].isalpha() and first[:1].isupper() and _YEAR_RE.fullmatch(last):
                return close + 1
            return None
        if surfaces[close] == "(":
            return None
    return None


def _is_boundary_token(surface: str, prev: str | None, stoplist: frozenset[str]) -> bool:
    """True if this token's terminal punctuation may end a sentence."""
    if surface in _TERMINALS:
        # standalone terminal punct; guard against a preceding abbreviation
        # emitted without its period by a different tokenizer
        if surface == "." and prev is not None and (prev.lower() + ".") in stoplist:
            return False
        return True
    if len(surface) > 1 and surface[-1] in _TERMINALS:
        return surface.lower() not in stoplist
    return False


def segment(doc: Document, cfg: SegmenterConfig | None = None) -> Document:
    """Populate sentence spans; existing spans are ignored."""
    if cfg is None:
        cfg = default_segmenter_config()
    surfaces = [t.surface for t in doc.tokens]
    n = len(surfaces)
    if n == 0:
        return doc.with_sentences(())

    boundaries: list[int] = []  # index of the last token of each sentence
    depth = 0
    i = 0
    while i < n:
        s = surfaces[i]
        if s in _OPENERS:
            depth += 1
            i += 1
            continue
        if s in _CLOSERS:
            depth = max(0, depth - 1)
            i += 1
            continue
        prev = surfaces[i - 1] if i > 0 else None
        if depth == 0 and _is_boundary_token(s, prev, cfg.stoplist):
            end = i
            j = i + 1
            # attach a trailing citation to the current sentence
            matched = True
            while matched and j < n:
                matched = False
                for enabled, matcher in (
                    (cfg.cite_bracket, _match_bracket_citation),
                    (cfg.cite_author_year, _match_author_year_citation),
                ):
                    if enabled:
                        nxt = matcher(surfaces, j)
                        if nxt is not None:
                            end = nxt - 1
                            j = nxt
                            matched = True
                            break
            if j >= n or _CONFIRM_RE.match(surfaces[j]):
                boundaries.append(end)
            i = end + 1
            continue
        i += 1

    if not boundaries or boundaries[-1] != n - 1:
        boundaries.append(n - 1)
    spans = []
    first = 0
    for last in boundaries:
        spans.append(SentenceSpan(first, last))
        first = last + 1
    return doc.with_sentences(spans)


def citation_split_rate(
    sentences: Sequence[str], cfg: SegmenterConfig | None = None
) -> float:
    """Fraction of known-single sentences left intact by the segmenter."""
    if not sentences:
        raise ValueError("empty evaluation set")
    rules = default_biomedical_rules()
    intact = 0
    for text in sentences:
        seg = segment(tokenize(text, rules), cfg)
        if len(seg.sentences) == 1:
            intact += 1
    return intact / len(sentences)
