"""Rule-based biomedical tokenizer.

Splits on whitespace, then peels prefix/suffix punctuation and applies
infix splitters, with protected tokens (abbreviations like "Fig.",
hyphenated compounds, decimal numbers) left intact. Rules are data: a
plain-text directive file, with a compiled-in biomedical default.

Ordering rules, per whitespace-free chunk: a piece that is protected or
a special case is never split further; otherwise the first listed
prefix it starts with is peeled, else the first listed suffix it ends
with, unless that suffix is the whole piece (peeling then stops; a
later, shorter suffix is not tried). What is left splits at infixes:
the leftmost match first and, at one position, the first listed infix,
with no overlaps.

Speed, as in spaCy's tokenizer: each `TokenizerRules` compiles its
rules once, on first use. The regex that finds the chunks also picks out
those no rule can touch: a chunk that does not start with a prefix's
first character, does not end with a suffix's last character and holds
no infix's first character is one token straight from the scan. The
test is conservative; every other chunk, and a special-case literal,
goes through the rules. Prefixes and infixes each become one regex
alternation, which tries alternatives in list order; the infix one is
scanned with `finditer`. Suffixes become a dict from suffix to its first
list index, looked up once per distinct suffix length. Each rules object
also memoizes what the rules make of each chunk, keeping the 4,096 most
recently used chunks. The chunks come from one `findall`:
after the leading whitespace its matches are contiguous, each a chunk and
the whitespace after it, so a running offset places every token without
a match object, and tokens are built with `tuple.__new__`, without
`Token`'s Python-level constructor. None of this changes an output;
tokens are still built per occurrence, with absolute offsets.

The tokenizer is lossless: detokenize(tokenize(s)) == s for any input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterable, Iterator

from .doc import Document, Token
from .lines import InputError, Lines, open_lines

_SPACE_RE = re.compile(r"\s*")
# chunks memoized per rules object, the most recently used kept
_MEMO_MAX = 4096


@dataclass(frozen=True)
class TokenizerRules:
    prefixes: tuple[str, ...] = ()
    suffixes: tuple[str, ...] = ()
    infixes: tuple[str, ...] = ()
    protected: frozenset[str] = frozenset()
    specials: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for kind in ("prefixes", "suffixes", "infixes", "protected"):
            if not all(getattr(self, kind)):
                raise ValueError(f"empty string in {kind}")
        for literal, pieces in self.specials.items():
            if "".join(pieces) != literal:
                raise ValueError(
                    f"special-case pieces for {literal!r} do not concatenate "
                    f"back to the literal"
                )

    @cached_property
    def _splitter(self) -> _Splitter:
        # built on first use, so loading rules costs no more than parsing
        # them; not a dataclass field, so == and repr ignore it
        return _Splitter(self)


class RulesFileError(InputError):
    """Raised on a malformed tokenizer/segmenter rules file."""


def _directives(lines: Lines, table: dict[str, bool]) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, DIRECTIVE, arg) per directive line of a rules file.

    Blank lines and '#' comments are skipped; directive names are
    case-insensitive. `table` maps each known directive to whether it
    takes an argument (arg is "" for one that does not).
    """
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        directive = parts[0].upper()
        arg = parts[1] if len(parts) > 1 else ""
        if directive not in table:
            raise lines.error(lineno, f"unknown directive {directive}")
        if table[directive] and not arg:
            raise lines.error(lineno, f"{directive} needs an argument")
        if arg and not table[directive]:
            raise lines.error(lineno, f"{directive} takes no argument")
        yield lineno, directive, arg


_RULE_DIRECTIVES = dict.fromkeys(
    ("PREFIX", "SUFFIX", "INFIX", "PROTECT", "SPECIAL"), True)


def parse_rules(source: str | Lines) -> TokenizerRules:
    """Parse the directive format: PREFIX/SUFFIX/INFIX/PROTECT/SPECIAL."""
    found: dict[str, list[str]] = {d: [] for d in _RULE_DIRECTIVES}
    specials: dict[str, tuple[str, ...]] = {}
    lines = source if isinstance(source, Lines) else Lines(source, error=RulesFileError)
    for lineno, directive, arg in _directives(lines, _RULE_DIRECTIVES):
        if directive != "SPECIAL":
            found[directive].append(arg)
            continue
        if "=>" not in arg:
            raise lines.error(lineno, "SPECIAL needs '=>'")
        literal, rhs = (s.strip() for s in arg.split("=>", 1))
        pieces = tuple(p for p in rhs.split("|") if p)
        if "".join(pieces) != literal:
            raise lines.error(lineno, f"SPECIAL pieces must concatenate to {literal!r}")
        specials[literal] = pieces
    return TokenizerRules(
        tuple(found["PREFIX"]), tuple(found["SUFFIX"]), tuple(found["INFIX"]),
        frozenset(found["PROTECT"]), specials,
    )


def load_rules(path: str) -> TokenizerRules:
    with open_lines(path, RulesFileError) as lines:
        return parse_rules(lines)


@lru_cache(maxsize=1)
def default_biomedical_rules() -> TokenizerRules:
    """The shipped default rule table (see data/default_rules.txt)."""
    text = (resources.files("bioling.data") / "default_rules.txt").read_text("utf-8")
    return parse_rules(text)


def _alternation(literals: tuple[str, ...]) -> re.Pattern:
    """One regex for the literals; at a position, the first listed wins.
    With no literals it matches nothing."""
    return re.compile("|".join(map(re.escape, literals)) if literals else "(?!)")


def _char_class(chars: Iterable[str]) -> str:
    """The characters, escaped, as the body of a regex class; "" for none."""
    return "".join(map(re.escape, sorted(set(chars))))


class _Splitter:
    """The compiled rules of one `TokenizerRules`, plus its chunk memo."""

    def __init__(self, rules: TokenizerRules):
        self.protected = rules.protected
        self.specials = rules.specials
        self.prefix = _alternation(rules.prefixes)
        self.infix = _alternation(rules.infixes)
        self.n_suffixes = len(rules.suffixes)
        self.suffix_rank: dict[str, int] = {}
        for rank, suf in enumerate(rules.suffixes):
            self.suffix_rank.setdefault(suf, rank)
        self.suffix_lens = sorted({len(suf) for suf in rules.suffixes})
        # group 1: a chunk no rule can touch (a one-character chunk avoids
        # all three classes); group 2: any other chunk; group 3: the
        # whitespace after it
        first = _char_class(p[0] for p in rules.prefixes)
        last = _char_class(s[-1] for s in rules.suffixes)
        inner = _char_class(i[0] for i in rules.infixes)
        simple = (rf"[^\s{first}{inner}][^\s{inner}]*[^\s{last}{inner}]"
                  rf"|[^\s{first}{last}{inner}]")
        self.chunk = re.compile(rf"(?:({simple})(?!\S)|(\S+))(\s*)")
        self.split = lru_cache(maxsize=_MEMO_MAX)(self._pieces)

    def _pieces(self, chunk: str) -> tuple[tuple[str, int, int], ...]:
        """(surface, start, end) per token of one whitespace-free chunk,
        offsets relative to the chunk."""
        return tuple((chunk[s:e], s, e) for s, e in self._spans(chunk))

    def _suffix_len(self, piece: str) -> int:
        """Length of the first listed suffix `piece` ends with; 0 if none."""
        rank, found = self.n_suffixes, 0
        for n in self.suffix_lens:
            if n > len(piece):
                break
            r = self.suffix_rank.get(piece[-n:], rank)
            if r < rank:
                rank, found = r, n
        return found

    def _spans(self, chunk: str) -> list[tuple[int, int]]:
        spans: list[tuple[int, int]] = []
        end_spans: list[tuple[int, int]] = []
        start, end = 0, len(chunk)
        while start < end:
            piece = chunk[start:end]
            # protected tokens and special cases beat every split rule
            if piece in self.protected or piece in self.specials:
                break
            m = self.prefix.match(chunk, start, end)
            if m:
                spans.append((start, m.end()))
                start = m.end()
                continue
            n = self._suffix_len(piece)
            # a suffix that is the whole piece stops peeling
            if 0 < n < len(piece):
                end_spans.append((end - n, end))
                end -= n
                continue
            break
        piece = chunk[start:end]
        if piece in self.specials:
            for part in self.specials[piece]:
                spans.append((start, start + len(part)))
                start += len(part)
        elif piece in self.protected:
            spans.append((start, end))
        else:
            # leftmost infix first; at one position the first listed wins
            for m in self.infix.finditer(chunk, start, end):
                if m.start() > start:
                    spans.append((start, m.start()))
                spans.append(m.span())
                start = m.end()
            if start < end:
                spans.append((start, end))
        spans.extend(reversed(end_spans))
        return spans


def tokenize(text: str, rules: TokenizerRules | None = None) -> Document:
    """Tokenize into a lossless Document; any unicode string is accepted."""
    if rules is None:
        rules = default_biomedical_rules()
    splitter = rules._splitter
    split, specials = splitter.split, splitter.specials
    new = tuple.__new__
    tokens: list[Token] = []
    leading = _SPACE_RE.match(text).group()
    pos = len(leading)
    for simple, chunk, ws in splitter.chunk.findall(text, pos):
        # findall gives an unmatched group as ""
        if simple and simple not in specials:
            tokens.append(new(Token, (simple, pos, pos + len(simple), ws)))
            pos += len(simple) + len(ws)
            continue
        chunk = simple or chunk
        pieces = split(chunk)
        for surface, s, e in pieces[:-1]:
            tokens.append(new(Token, (surface, pos + s, pos + e, "")))
        surface, s, e = pieces[-1]
        tokens.append(new(Token, (surface, pos + s, pos + e, ws)))
        pos += len(chunk) + len(ws)
    return Document(text, tuple(tokens), (), leading)
