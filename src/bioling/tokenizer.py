"""Rule-based biomedical tokenizer.

Splits on whitespace, then peels prefix/suffix punctuation and applies
infix splitters, with protected tokens (abbreviations like "Fig.",
hyphenated compounds, decimal numbers) left intact. Rules are data: a
plain-text directive file, with a compiled-in biomedical default.

The tokenizer is lossless: detokenize(tokenize(s)) == s for any input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .doc import Document, Token

_CHUNK_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class TokenizerRules:
    prefixes: tuple[str, ...] = ()
    suffixes: tuple[str, ...] = ()
    infixes: tuple[str, ...] = ()
    protected: frozenset[str] = frozenset()
    specials: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for literal, pieces in self.specials.items():
            if "".join(pieces) != literal:
                raise ValueError(
                    f"special-case pieces for {literal!r} do not concatenate "
                    f"back to the literal"
                )


class RulesFileError(ValueError):
    """Raised on a malformed tokenizer/segmenter rules file."""


def _directives(text: str, table: dict[str, bool]) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, DIRECTIVE, arg) per directive line of a rules file.

    Blank lines and '#' comments are skipped; directive names are
    case-insensitive. `table` maps each known directive to whether it
    takes an argument (arg is "" for one that does not).
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        directive = parts[0].upper()
        arg = parts[1] if len(parts) > 1 else ""
        if directive not in table:
            raise RulesFileError(f"line {lineno}: unknown directive {directive}")
        if table[directive] and not arg:
            raise RulesFileError(f"line {lineno}: {directive} needs an argument")
        if arg and not table[directive]:
            raise RulesFileError(f"line {lineno}: {directive} takes no argument")
        yield lineno, directive, arg


_RULE_DIRECTIVES = dict.fromkeys(
    ("PREFIX", "SUFFIX", "INFIX", "PROTECT", "SPECIAL"), True)


def parse_rules(text: str) -> TokenizerRules:
    """Parse the directive format: PREFIX/SUFFIX/INFIX/PROTECT/SPECIAL."""
    found: dict[str, list[str]] = {d: [] for d in _RULE_DIRECTIVES}
    specials: dict[str, tuple[str, ...]] = {}
    for lineno, directive, arg in _directives(text, _RULE_DIRECTIVES):
        if directive != "SPECIAL":
            found[directive].append(arg)
            continue
        if "=>" not in arg:
            raise RulesFileError(f"line {lineno}: SPECIAL needs '=>'")
        literal, rhs = (s.strip() for s in arg.split("=>", 1))
        pieces = tuple(p for p in rhs.split("|") if p)
        if "".join(pieces) != literal:
            raise RulesFileError(
                f"line {lineno}: SPECIAL pieces must concatenate to {literal!r}")
        specials[literal] = pieces
    return TokenizerRules(
        tuple(found["PREFIX"]), tuple(found["SUFFIX"]), tuple(found["INFIX"]),
        frozenset(found["PROTECT"]), specials,
    )


def load_rules(path: str) -> TokenizerRules:
    with open(path, encoding="utf-8") as fp:
        return parse_rules(fp.read())


@lru_cache(maxsize=1)
def default_biomedical_rules() -> TokenizerRules:
    """The shipped default rule table (see data/default_rules.txt)."""
    text = (resources.files("bioling.data") / "default_rules.txt").read_text("utf-8")
    return parse_rules(text)


def _match_prefix(rules: TokenizerRules, piece: str) -> str | None:
    for p in rules.prefixes:
        if piece.startswith(p):
            return p
    return None


def _match_suffix(rules: TokenizerRules, piece: str) -> str | None:
    for s in rules.suffixes:
        if piece.endswith(s):
            return s
    return None


def _split_infix(rules: TokenizerRules, piece: str, offset: int) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    seg_start = 0
    i = 0
    n = len(piece)
    while i < n:
        hit = None
        # earliest rule in the ordered list wins at a given position
        for inf in rules.infixes:
            if piece.startswith(inf, i):
                hit = inf
                break
        if hit is None:
            i += 1
            continue
        if i > seg_start:
            spans.append((offset + seg_start, offset + i))
        spans.append((offset + i, offset + i + len(hit)))
        seg_start = i + len(hit)
        i = seg_start
    if seg_start < n:
        spans.append((offset + seg_start, offset + n))
    return spans


def _split_chunk(rules: TokenizerRules, chunk: str) -> list[tuple[int, int]]:
    """Token spans (relative to the chunk) for one whitespace-free chunk."""
    spans: list[tuple[int, int]] = []
    end_spans: list[tuple[int, int]] = []
    start, end = 0, len(chunk)
    while start < end:
        piece = chunk[start:end]
        # protected tokens and special cases beat every split rule
        if piece in rules.protected or piece in rules.specials:
            break
        pre = _match_prefix(rules, piece)
        if pre is not None:
            spans.append((start, start + len(pre)))
            start += len(pre)
            continue
        suf = _match_suffix(rules, piece)
        if suf is not None and len(suf) < len(piece):
            end_spans.append((end - len(suf), end))
            end -= len(suf)
            continue
        break
    piece = chunk[start:end]
    if piece:
        if piece in rules.specials:
            pos = start
            for part in rules.specials[piece]:
                spans.append((pos, pos + len(part)))
                pos += len(part)
        elif piece in rules.protected:
            spans.append((start, end))
        else:
            spans.extend(_split_infix(rules, piece, start))
    spans.extend(reversed(end_spans))
    return spans


def tokenize(text: str, rules: TokenizerRules | None = None) -> Document:
    """Tokenize into a lossless Document; any unicode string is accepted."""
    if rules is None:
        rules = default_biomedical_rules()
    tokens: list[Token] = []
    chunk_matches = list(_CHUNK_RE.finditer(text))
    leading = text[:chunk_matches[0].start()] if chunk_matches else text
    for ci, m in enumerate(chunk_matches):
        chunk = m.group()
        base = m.start()
        gap_end = (chunk_matches[ci + 1].start()
                   if ci + 1 < len(chunk_matches) else len(text))
        rel_spans = _split_chunk(rules, chunk)
        for si, (rs, re_) in enumerate(rel_spans):
            trailing = text[m.end():gap_end] if si == len(rel_spans) - 1 else ""
            tokens.append(Token(chunk[rs:re_], base + rs, base + re_, trailing))
    return Document(text, tuple(tokens), (), leading)
