"""Rule-based sentence segmenter hardened against citations.

Boundaries are placed after terminal punctuation (., !, ?) unless the
token is a known abbreviation, the position is inside an unclosed
bracket, a citation pattern immediately follows (it is attached to the
current sentence), or the following token fails the confirmation test
(uppercase / digit / opening bracket).

Only a token whose surface ends in terminal punctuation or a bracket can
change the bracket depth or end a sentence, so one comprehension picks
those out and the loop visits them alone; the tokens of an attached
citation are skipped, as they are consumed with the sentence they end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .doc import Document, SentenceSpan
from .lines import Lines, open_lines
from .tokenizer import RulesFileError, _directives, _literal_fault, default_biomedical_rules, tokenize

_TERMINALS = frozenset(".!?")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_STATE_ENDS = ".!?([{)]}"
_NUM_LIST_RE = re.compile(r"[0-9][0-9,;–—-]*\Z")
_YEAR_RE = re.compile(r"(1[6-9]|20)\d\d[a-z]?\Z")
_CONFIRM_RE = re.compile(r'[A-Z0-9([{"“‘]')


@dataclass(frozen=True)
class SegmenterConfig:
    stoplist: frozenset[str] = frozenset()       # lowercased, period attached
    cite_bracket: bool = False
    cite_author_year: bool = False

    def __post_init__(self):
        # a token surface is never empty and holds no whitespace
        for entry in self.stoplist:
            if fault := _literal_fault("stoplist", entry):
                raise ValueError(fault)


# directive -> whether it takes an argument
_SEGMENTER_DIRECTIVES = {
    "NOSPLIT": True, "CITE_BRACKET": False, "CITE_AUTHOR_YEAR": False,
}


def parse_segmenter_config(source: str | Lines) -> SegmenterConfig:
    """Parse the directive format: NOSPLIT / CITE_BRACKET / CITE_AUTHOR_YEAR."""
    stoplist: set[str] = set()
    flags: set[str] = set()
    lines = source if isinstance(source, Lines) else Lines(source, error=RulesFileError)
    for lineno, directive, arg in _directives(lines, _SEGMENTER_DIRECTIVES):
        if directive == "NOSPLIT":
            if fault := _literal_fault("stoplist", arg):
                raise lines.error(lineno, fault)
            stoplist.add(arg.lower())
        else:
            flags.add(directive)
    return SegmenterConfig(frozenset(stoplist), "CITE_BRACKET" in flags,
                           "CITE_AUTHOR_YEAR" in flags)


def load_segmenter_config(path: str) -> SegmenterConfig:
    with open_lines(path, RulesFileError) as lines:
        return parse_segmenter_config(lines)


@lru_cache(maxsize=1)
def default_segmenter_config() -> SegmenterConfig:
    text = (resources.files("bioling.data") / "default_segmenter.txt").read_text("utf-8")
    return parse_segmenter_config(text)


def _match_bracket_citation(surfaces: Sequence[str], j: int) -> int | None:
    """Match "[ 1,2 ]"-style citations at token j < n; return index past "]"."""
    n = len(surfaces)
    if surfaces[j] != "[":
        return None
    i = j + 1
    while i < n and _NUM_LIST_RE.fullmatch(surfaces[i]):
        i += 1
    if i > j + 1 and i < n and surfaces[i] == "]":
        return i + 1
    return None


def _match_author_year_citation(surfaces: Sequence[str], j: int) -> int | None:
    """Match "( Name et al. , 2002 )"-style citations at token j < n; index past ")"."""
    n = len(surfaces)
    if surfaces[j] != "(":
        return None
    # bounded scan: author-year citations are short
    for close in range(j + 2, min(j + 10, n)):
        if surfaces[close] == ")":
            first, last = surfaces[j + 1], surfaces[close - 1]
            if first[:1].isalpha() and first[:1].isupper() and _YEAR_RE.fullmatch(last):
                return close + 1
            return None
        if surfaces[close] == "(":
            return None
    return None


def _citation_end(surfaces: Sequence[str], j: int, cfg: SegmenterConfig) -> int | None:
    """Index past an enabled citation at token j < n, bracket tried first; else None."""
    if cfg.cite_bracket and (nxt := _match_bracket_citation(surfaces, j)):
        return nxt
    return _match_author_year_citation(surfaces, j) if cfg.cite_author_year else None


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
    resume = 0  # tokens before it belong to an attached citation
    # `s[-1:]`, unlike `s[-1]`, takes an empty surface without raising
    for i in [i for i, s in enumerate(surfaces) if s[-1:] in _STATE_ENDS]:
        if i < resume:
            continue
        s = surfaces[i]
        if s in _OPENERS:
            depth += 1
            continue
        if s in _CLOSERS:
            depth = max(0, depth - 1)
            continue
        prev = surfaces[i - 1] if i > 0 else None
        if depth == 0 and _is_boundary_token(s, prev, cfg.stoplist):
            # attach trailing citations to the current sentence
            j = i + 1
            while j < n and (nxt := _citation_end(surfaces, j, cfg)):
                j = nxt
            if j >= n or _CONFIRM_RE.match(surfaces[j]):
                boundaries.append(j - 1)
            resume = j

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
