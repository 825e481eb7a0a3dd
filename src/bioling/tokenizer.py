"""Rule-based biomedical tokenizer.

Splits on whitespace, then peels prefix/suffix punctuation and applies
infix splitters, with protected tokens (abbreviations like "Fig.",
hyphenated compounds, decimal numbers) left intact. Rules are data: a
plain-text directive file, with a compiled-in biomedical default. A rule
literal is never empty and holds no whitespace, since no chunk does.

Ordering rules, per whitespace-free chunk: a piece that is protected or
a special case is never split further; otherwise the first listed
prefix it starts with is peeled, else the first listed suffix it ends
with, unless that suffix is the whole piece (peeling then stops; a
later, shorter suffix is not tried). What is left splits at infixes:
the leftmost match first and, at one position, the first listed infix,
with no overlaps.

Speed, as in spaCy's tokenizer: each `TokenizerRules` compiles its
rules once, on first use. The regex that finds the chunks also peels
most of them. Its core is a piece no rule can touch: it does not start
with a prefix's first character, does not end with a suffix's last
character and holds no infix's first character. Before the core may
come one one-character prefix and after it up to two one-character
suffixes, none shadowed by a longer affix. Such a chunk becomes its
prefix, core and suffixes straight from the scan, unless the core is a
special case or, with affixes, the core of a protected or special
literal that the peeling might meet. That is 95.6% of the chunks of
diverse perfbench abstracts and 99.2% of repetitive ones; the rest,
mostly infix units like "mg/kg" and "p<0.05", goes through the rules.
Prefixes, suffixes and infixes each
become one regex alternation, which tries alternatives in list order;
suffixes are reversed and matched on the chunk reversed once. A piece is
looked up in the protected and special literals only when it is no
longer than the longest of them, so a run of affixes is peeled in linear
time. Each rules object also memoizes what the rules make of each chunk
of up to 32 characters, keeping the 4,096 most recently used. The
chunks come from one `findall`: after the leading whitespace its matches
are contiguous, each a chunk and the whitespace after it, so a running
offset places every token without a match object, and tokens are built
with `tuple.__new__`, without `Token`'s Python-level constructor. None
of this changes an output; tokens are still built per occurrence, with
absolute offsets.

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
_WS_RE = re.compile(r"\s")
# chunks memoized per rules object, the most recently used kept
_MEMO_MAX = 4096
# a longer chunk is split without the memo, which would pin its split: over
# four times the longest chunk the memo meets again in perfbench abstracts
_MEMO_CHUNK_MAX = 32
_RULE_KINDS = {"PREFIX": "prefixes", "SUFFIX": "suffixes", "INFIX": "infixes",
               "PROTECT": "protected", "SPECIAL": "specials"}


def _literal_fault(kind: str, literal: str) -> str:
    """Why a rule literal could never apply as written, else "": an empty
    one would match everywhere without consuming anything, and one holding
    whitespace would never meet a chunk."""
    if not literal:
        return f"empty string in {kind}"
    if _WS_RE.search(literal):
        return f"whitespace in {kind} literal {literal!r}"
    return ""


@dataclass(frozen=True)
class TokenizerRules:
    prefixes: tuple[str, ...] = ()
    suffixes: tuple[str, ...] = ()
    infixes: tuple[str, ...] = ()
    protected: frozenset[str] = frozenset()
    specials: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        # one scan of all the literals; the faulty one is looked for after
        literals = [*self.prefixes, *self.suffixes, *self.infixes,
                    *self.protected, *self.specials]
        if not all(literals) or _WS_RE.search("".join(literals)):
            raise ValueError(next(
                fault for kind in _RULE_KINDS.values() for literal in getattr(self, kind)
                if (fault := _literal_fault(kind, literal))))
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

    '#' comments are skipped, as `Lines` skips blank lines; directive names
    are case-insensitive. `table` maps each known directive to whether it
    takes an argument (arg is "" for one that does not).
    """
    for lineno, line in lines:
        line = line.strip()
        if line.startswith("#"):
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


_RULE_DIRECTIVES = dict.fromkeys(_RULE_KINDS, True)


def parse_rules(source: str | Lines) -> TokenizerRules:
    """Parse the directive format: PREFIX/SUFFIX/INFIX/PROTECT/SPECIAL."""
    found: dict[str, list[str]] = {d: [] for d in _RULE_DIRECTIVES}
    specials: dict[str, tuple[str, ...]] = {}
    lines = source if isinstance(source, Lines) else Lines(source, error=RulesFileError)
    has_space = _WS_RE.search
    for lineno, directive, literal in _directives(lines, _RULE_DIRECTIVES):
        if directive != "SPECIAL":
            found[directive].append(literal)
        elif "=>" not in literal:
            raise lines.error(lineno, "SPECIAL needs '=>'")
        else:
            literal, rhs = (s.strip() for s in literal.split("=>", 1))
            pieces = tuple(p for p in rhs.split("|") if p)
            if "".join(pieces) != literal:
                raise lines.error(lineno, f"SPECIAL pieces must concatenate to {literal!r}")
            specials[literal] = pieces
        if not literal or has_space(literal):
            raise lines.error(lineno, _literal_fault(_RULE_KINDS[directive], literal))
    return TokenizerRules(
        tuple(found["PREFIX"]), tuple(found["SUFFIX"]), tuple(found["INFIX"]),
        frozenset(found["PROTECT"]), specials,
    )


def load_rules(path: str | None) -> TokenizerRules:
    """The rules in the file at `path`; the shipped, cached rules for None or ""."""
    if not path:
        return default_biomedical_rules()
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


def _lone_class(affixes: tuple[str, ...], at: int) -> str:
    """A regex class of the one-character affixes that no longer affix
    starts (at=0) or ends (at=-1) with; one that matches nothing if none."""
    shadowed = {a[at] for a in affixes if len(a) > 1}
    body = _char_class(a for a in affixes if len(a) == 1 and a not in shadowed)
    return f"[{body}]" if body else r"[^\s\S]"


class _Splitter:
    """The compiled rules of one `TokenizerRules`, plus its chunk memo."""

    def __init__(self, rules: TokenizerRules):
        self.protected = rules.protected
        self.specials = rules.specials
        self.prefix = _alternation(rules.prefixes)
        # matched on the reversed chunk, ending where the piece ends
        self.suffix = _alternation(tuple(suf[::-1] for suf in rules.suffixes))
        self.infix = _alternation(rules.infixes)
        # groups: an optional lone prefix, a core no rule can touch (one
        # character long, it avoids all three classes), up to two lone
        # suffixes; else any other chunk; then the whitespace after it
        first = _char_class(p[0] for p in rules.prefixes)
        last = _char_class(s[-1] for s in rules.suffixes)
        inner = _char_class(i[0] for i in rules.infixes)
        core = (rf"[^\s{first}{inner}][^\s{inner}]*[^\s{last}{inner}]"
                rf"|[^\s{first}{last}{inner}]")
        pre = _lone_class(rules.prefixes, 0)
        suf = _lone_class(rules.suffixes, -1)
        self.chunk = re.compile(
            rf"(?:({pre}?)({core})({suf}{{0,2}})(?!\S)|(\S+))(\s*)")
        # A chunk with affixes goes through the rules if its core is that
        # of a protected or special literal, which peeling it may meet.
        literals = (*rules.protected, *rules.specials)
        self.risky = {self.chunk.match(lit)[2] for lit in literals} - {None}
        # a longer piece is never sliced to be looked up
        self.longest = max(map(len, literals), default=0)
        self.split = lru_cache(maxsize=_MEMO_MAX)(self._pieces)

    def _pieces(self, chunk: str) -> tuple[tuple[str, int, int], ...]:
        """(surface, start, end) per token of one whitespace-free chunk,
        offsets relative to the chunk."""
        protected, specials = self.protected, self.specials
        pieces: list[tuple[str, int, int]] = []
        end_pieces: list[tuple[str, int, int]] = []
        rev, n = chunk[::-1], len(chunk)
        start, end = 0, n
        while True:
            piece = chunk[start:end] if end - start <= self.longest else ""
            # protected tokens and special cases beat every split rule
            if piece in protected or piece in specials:
                break
            m = self.prefix.match(chunk, start, end)
            if m:
                pieces.append((m.group(), start, m.end()))
                start = m.end()
                continue
            m = self.suffix.match(rev, n - end, n - start)
            # a suffix that is the whole piece stops peeling
            if m and m.end() < n - start:
                cut = end - len(m.group())
                end_pieces.append((chunk[cut:end], cut, end))
                end = cut
                continue
            break
        if piece in specials:
            for part in specials[piece]:
                pieces.append((part, start, start + len(part)))
                start += len(part)
        elif piece in protected:
            pieces.append((piece, start, end))
        else:
            # leftmost infix first; at one position the first listed wins
            for m in self.infix.finditer(chunk, start, end):
                if m.start() > start:
                    pieces.append((chunk[start:m.start()], start, m.start()))
                pieces.append((m.group(), *m.span()))
                start = m.end()
            if start < end:
                pieces.append((chunk[start:end], start, end))
        pieces.extend(reversed(end_pieces))
        return tuple(pieces)


def tokenize(text: str, rules: TokenizerRules | None = None) -> Document:
    """Tokenize into a lossless Document; any unicode string is accepted."""
    if rules is None:
        rules = default_biomedical_rules()
    splitter = rules._splitter
    split, specials, risky = splitter.split, splitter.specials, splitter.risky
    new = tuple.__new__
    tokens: list[Token] = []
    append = tokens.append
    leading = _SPACE_RE.match(text).group()
    pos = len(leading)
    for pre, core, suf, chunk, ws in splitter.chunk.findall(text, pos):
        # findall gives an unmatched group as ""
        if not (pre or suf):
            if core and core not in specials:
                append(new(Token, (core, pos, pos + len(core), ws)))
                pos += len(core) + len(ws)
                continue
        elif core not in risky:
            if pre:
                append(new(Token, (pre, pos, pos + 1, "")))
                pos += 1
            end = pos + len(core)
            append(new(Token, (core, pos, end, "" if suf else ws)))
            if suf:
                if len(suf) == 2:
                    append(new(Token, (suf[0], end, end + 1, "")))
                    end += 1
                append(new(Token, (suf[-1], end, end + 1, ws)))
                end += 1
            pos = end + len(ws)
            continue
        chunk = chunk or pre + core + suf
        pieces = split(chunk) if len(chunk) <= _MEMO_CHUNK_MAX else splitter._pieces(chunk)
        for surface, s, e in pieces[:-1]:
            append(new(Token, (surface, pos + s, pos + e, "")))
        surface, s, e = pieces[-1]
        append(new(Token, (surface, pos + s, pos + e, ws)))
        pos += len(chunk) + len(ws)
    return Document(text, tuple(tokens), (), leading)
