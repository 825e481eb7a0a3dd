"""Seeded input generators for the benchmark.

Everything here is a pure function of a `random.Random`, so one seed gives
one set of inputs. The program under test sees only what these functions
return: KB lines, abstract texts and mention strings. The gold data that
rides along (sentence counts, abbreviation offsets, concept ids) is what
the benchmark checks the program's outputs against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Pseudo-morphemes. Syllables are drawn from these pools, so a large KB
# spreads over thousands of distinct character 3-grams instead of the few
# hundred a fixed stem list gives. No pool uses 'q' or 'j', which keeps
# the out-of-vocabulary mentions below out of every alias.
_ONSETS = (
    "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
    "v", "w", "z", "br", "cr", "dr", "fl", "gr", "pl", "pr", "sc", "sl",
    "sp", "st", "tr", "ch", "ph", "th", "x", "y",
)
_VOWELS = ("a", "e", "i", "o", "u", "y", "ae", "ia", "io", "ou", "ei", "au")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "x", "st", "nt", "rg", "ct", "ph")
_SUFFIXES = (
    "oma", "itis", "osis", "emia", "pathy", "ectomy", "plasty", "cyte",
    "blast", "genic", "lysis", "trophy", "plasia", "oid", "ase", "in", "ine",
    "ol", "ide", "ate", "ic", "al", "ula", "ium",
)
_MODIFIERS = (
    "acute", "chronic", "benign", "malignant", "primary", "secondary",
    "diffuse", "focal", "bilateral", "recurrent", "familial", "idiopathic",
    "systemic", "localized", "congenital", "hereditary", "severe", "mild",
    "atypical", "progressive", "neonatal", "adult", "refractory", "latent",
    "toxic", "viral", "bacterial", "mutant", "soluble", "membrane",
)
_HEADS = (
    "receptor", "protein", "factor", "kinase", "syndrome", "disease",
    "antigen", "complex", "channel", "domain", "deficiency", "inhibitor",
    "ligand", "carcinoma", "lesion", "disorder", "enzyme", "pathway",
)
_OOV_CHARS = "qjqjqj0αβγδω"

_AUTHORS = (
    "Smith", "Jones", "Chen", "Kim", "Garcia", "Miller", "Tanaka", "Novak",
    "Patel", "Schmidt", "Rossi", "Dubois", "Larsen", "Kowalski", "Ivanov",
    "Nakamura", "Silva", "Haddad", "Olsen", "Weber",
)
CITATION_FAMILIES = (
    "bracket_numeric", "paren_author_year", "plain_author_year", "superscript",
)


def _syllable(rng: random.Random) -> str:
    return rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)


def _stem(rng: random.Random) -> str:
    return "".join(_syllable(rng) for _ in range(rng.randint(1, 3)))


# -- knowledge base -----------------------------------------------------

@dataclass(frozen=True)
class SyntheticKB:
    lines: list[dict]                      # KB JSONL records
    alias_concept: list[tuple[str, str]]   # (alias surface, concept id)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for rec in self.lines:
                fp.write(json.dumps(rec, ensure_ascii=False))
                fp.write("\n")


def make_kb(rng: random.Random, n_aliases: int) -> SyntheticKB:
    """A KB with exactly `n_aliases` distinct alias surfaces.

    Each concept has a canonical name (1-3 stem+suffix words with an
    optional modifier or head noun) plus variants: a modifier form, a
    capitalised form (same normalised key, so identical vectors and exact
    score ties), an acronym (often shared across concepts) and a numbered
    type. Stems scale with the KB so each stem occurs in ~40 aliases.
    """
    stems = sorted({_stem(rng) for _ in range(max(300, n_aliases // 40))})
    words = [s + suf for s in stems for suf in rng.sample(_SUFFIXES, 3)]
    seen: set[str] = set()
    lines: list[dict] = []
    alias_concept: list[tuple[str, str]] = []
    i = 0
    while len(seen) < n_aliases:
        cid = f"C{i:07d}"
        i += 1
        base = [rng.choice(words) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
        if rng.random() < 0.3:
            base.insert(0, rng.choice(_MODIFIERS))
        if rng.random() < 0.3:
            base.append(rng.choice(_HEADS))
        canonical = " ".join(base)
        variants = [canonical]
        if rng.random() < 0.5:
            variants.append(f"{rng.choice(_MODIFIERS)} {canonical}")
        if rng.random() < 0.3:
            variants.append(canonical.capitalize())
        if len(base) > 1 and rng.random() < 0.5:
            variants.append("".join(w[0] for w in base).upper())
        if rng.random() < 0.2:
            variants.append(f"{base[-1]} type {rng.randint(1, 9)}")
        aliases = []
        for a in variants:
            if len(seen) >= n_aliases and a not in seen:
                continue
            if a not in aliases:
                aliases.append(a)
                seen.add(a)
        lines.append({"concept_id": cid, "canonical_name": canonical,
                      "aliases": aliases, "types": ["T047"], "definition": None})
        alias_concept.extend((a, cid) for a in aliases)
    return SyntheticKB(lines, alias_concept)


# -- mentions -----------------------------------------------------------

@dataclass(frozen=True)
class Mention:
    text: str
    gold: str | None   # concept id the candidates should contain


def _perturb(rng: random.Random, s: str) -> str:
    i = rng.randrange(1, len(s) - 1)
    roll = rng.random()
    if roll < 0.35:
        return s[:i] + s[i] + s[i:]                 # doubled letter
    if roll < 0.7:
        return s[:i] + s[i + 1:]                    # dropped letter
    return s[:i] + s[i + 1] + s[i] + s[i + 2:]      # transposition


def _case_space_variant(rng: random.Random, s: str) -> str:
    roll = rng.random()
    if roll < 0.3:
        s = s.upper()
    elif roll < 0.6:
        s = s.title()
    return rng.choice(("  ", " ", "\t")).join(s.split())


def make_mention_mix(rng: random.Random, kb: SyntheticKB, n: int) -> list[Mention]:
    """Link queries: 40% perturbed aliases, 30% exact aliases with case or
    whitespace changes, 20% single common words (long posting lists) and
    10% out-of-vocabulary strings."""
    long_aliases = [ac for ac in kb.alias_concept if len(ac[0]) >= 6]
    common = _MODIFIERS + _HEADS
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            alias, cid = rng.choice(long_aliases)
            out.append(Mention(_perturb(rng, alias), cid))
        elif roll < 0.7:
            alias, cid = rng.choice(kb.alias_concept)
            out.append(Mention(_case_space_variant(rng, alias), cid))
        elif roll < 0.9:
            out.append(Mention(rng.choice(common), None))
        else:
            word = "".join(rng.choice(_OOV_CHARS) for _ in range(rng.randint(3, 8)))
            out.append(Mention(word, None))
    return out


# -- abstracts ----------------------------------------------------------

@dataclass(frozen=True)
class Abstract:
    text: str
    n_sentences: int
    # (short start, short end, long start, long end) of each definition
    definitions: tuple[tuple[int, int, int, int], ...]
    # mention offsets into text, with gold concept ids
    mentions: tuple[tuple[int, int, str], ...]


def short_form_of(words: list[str]) -> str | None:
    """Upper-case initials, if the abbreviation detector must find exactly
    `words` as the long form.

    The detector matches short-form letters right to left and takes the
    shortest window whose first letter starts a word; that window starts
    at words[0] when no later word starts with the same letter. A long
    form of at most 10 characters would itself pass as a short form.
    """
    if len(words) < 2 or len(" ".join(words)) <= 10:
        return None
    first = words[0][0].lower()
    if not first.isalpha() or any(w[0].lower() == first for w in words[1:]):
        return None
    sf = "".join(w[0] for w in words).upper()
    if any(w.lower() == sf.lower() for w in words):
        return None
    return sf


def _citation(rng: random.Random, family: str) -> str:
    if family == "bracket_numeric":
        nums = sorted(rng.sample(range(1, 100), rng.choice((1, 2, 3))))
        sep = "-" if len(nums) == 2 and rng.random() < 0.5 else ","
        return "[" + sep.join(map(str, nums)) + "]"
    author = rng.choice(_AUTHORS)
    year = rng.randint(1980, 2023)
    if family == "paren_author_year":
        if rng.random() < 0.5:
            return f"({author} et al., {year})"
        return f"({author} and {rng.choice(_AUTHORS)}, {year})"
    if family == "plain_author_year":
        return f"{author} et al. {year}"
    return f".{rng.randint(1, 99)}"  # superscript, glued to the previous word


class _SentenceWriter:
    """Builds one abstract sentence by sentence, tracking gold offsets."""

    def __init__(self, rng: random.Random, gaps: tuple[str, ...] = (" ",)):
        self.rng = rng
        self.gaps = gaps            # whitespace between sentences
        self.parts: list[str] = []
        self.size = 0
        self.n_sentences = 0
        self.definitions: list[tuple[int, int, int, int]] = []
        self.mentions: list[tuple[int, int, str]] = []

    def add(self, s: str) -> tuple[int, int]:
        """Append text; returns its (start, end) offsets."""
        start = self.size
        self.parts.append(s)
        self.size += len(s)
        return start, self.size

    def sentence(self, pieces: list, end: str = ".") -> None:
        """pieces: plain strings, or ("mention", text, cid), ("define",
        long form, short form, mirrored), ("cite", family)."""
        rng = self.rng
        if self.n_sentences:
            self.add(rng.choice(self.gaps))
        first = True
        for p in pieces:
            if isinstance(p, str):
                self.add(p if first else " " + p)
            elif p[0] == "mention":
                if not first:
                    self.add(" ")
                s, e = self.add(p[1])
                self.mentions.append((s, e, p[2]))
            elif p[0] == "define":
                _, long_form, sf, mirrored = p
                if not first:
                    self.add(" ")
                if mirrored:
                    ss, se = self.add(sf)
                    self.add(" (")
                    ls, le = self.add(long_form)
                    self.add(")")
                else:
                    ls, le = self.add(long_form)
                    self.add(" (")
                    ss, se = self.add(sf)
                    self.add(")")
                self.definitions.append((ss, se, ls, le))
            elif p[1] == "superscript":
                self.add(_citation(rng, "superscript"))
            else:
                self.add(" " + _citation(rng, p[1]))
            first = False
        self.add(end)
        self.n_sentences += 1
        # a citation right after the terminal punctuation belongs to this
        # sentence
        if rng.random() < 0.05:
            self.add(" " + _citation(rng, rng.choice(
                ("bracket_numeric", "paren_author_year"))))

    def abstract(self) -> Abstract:
        return Abstract("".join(self.parts), self.n_sentences, tuple(self.definitions),
                        tuple(self.mentions))


# Repetitive abstracts: a fixed pool of base sentences, as in abstracts
# copied from one template-heavy source. {m} marks a mention slot.
_BASE_SENTENCES = (
    "Treatment significantly reduced tumor growth in the cohort {m} group",
    "Expression of {m} was elevated in affected tissue samples",
    "The intervention improved survival across both study arms",
    "Protein levels declined steadily over the observation period",
    "Mutations in {m} were detected in most samples",
    "The dose response curve plateaued after the fourth week of treatment",
    "Participants with {m} reported fewer adverse events under treatment",
    "Cell viability decreased sharply at higher concentrations",
    "The biomarker correlated strongly with {m} progression",
    "Imaging revealed reduced lesion volume after therapy",
    "These findings suggest that {m} contributes to disease onset",
    "Patients were followed for a median of five years",
    "Serum concentrations were measured at baseline and at follow-up",
    "We observed a marked increase in {m} activity",
    "No significant differences were found between the groups",
    "The association with {m} remained after adjustment for age",
)


def _fill(template: str, slot: list) -> list:
    """Split a template into pieces, putting `slot` pieces at {m}."""
    before, sep, after = template.partition("{m}")
    pieces: list = before.split()
    if sep:
        pieces.extend(slot)
    pieces.extend(after.split())
    return pieces


def make_repetitive_abstract(
    rng: random.Random, kb: SyntheticKB, n_mentions: int = 5, size: int = 1400
) -> Abstract:
    """~`size`-character abstract with `n_mentions` gold KB-alias mentions.

    Up to two mentions are short forms defined earlier in the abstract
    ("long form (SF)"), so recall depends on abbreviation expansion.
    """
    w = _SentenceWriter(rng)
    mentions: list[tuple[str, str]] = []
    defined: set[str] = set()
    for _ in range(n_mentions):
        alias, cid = rng.choice(kb.alias_concept)
        sf = short_form_of(alias.split())
        if sf and sf not in defined and len(defined) < 2 and rng.random() < 0.6:
            defined.add(sf)
            w.sentence(["In this study", ("define", alias, sf, False),
                        "was examined in detail"])
            mentions.append((sf, cid))
        else:
            mentions.append((alias, cid))
    templates = [t for t in _BASE_SENTENCES if "{m}" in t]
    plain = [t for t in _BASE_SENTENCES if "{m}" not in t]
    pending = list(mentions)
    while pending or w.size < size:
        if pending and (rng.random() < 0.5 or w.size > size * 0.7):
            text, cid = pending.pop(0)
            pieces = _fill(rng.choice(templates), [("mention", text, cid)])
        else:
            pieces = _fill(rng.choice(plain), [])
        roll = rng.random()
        if roll < 0.25:
            pieces.append(("cite", "bracket_numeric"))
        elif roll < 0.4:
            pieces.append(("cite", "paren_author_year"))
        w.sentence(pieces)
    return w.abstract()


# Diverse abstracts: words are generated on the fly, so most whitespace
# chunks are new; function words and measurements keep it text-like.
_FUNCTION_WORDS = (
    "the", "of", "and", "in", "with", "was", "were", "for", "to", "by",
    "a", "that", "on", "from", "after", "than",
)
_UNITS = ("mg/kg", "mg/dl", "ng/ml", "mmol/l", "µg/ml", "IU/ml", "%", "h", "days")


def _word(rng: random.Random) -> str:
    return _stem(rng) + rng.choice(_SUFFIXES)


def _number(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.25:
        return f"{rng.uniform(0, 100):.{rng.randint(1, 3)}f}"
    if roll < 0.45:
        a = rng.randint(1, 60)
        return f"{a}-{a + rng.randint(1, 40)}"
    if roll < 0.6:
        return f"p<0.0{rng.randint(1, 5)}"
    if roll < 0.75:
        return f"{rng.choice(('IL', 'CD', 'TNF', 'HLA', 'NF'))}-{rng.randint(1, 40)}"
    if roll < 0.9:
        unit = rng.choice(_UNITS)
        n = f"{rng.randint(1, 500)}"
        return n + unit if unit == "%" else f"{n} {unit}"
    return f"(Fig. {rng.randint(1, 8)})"


def make_diverse_abstract(rng: random.Random, size: int = 1400) -> Abstract:
    """~`size`-character abstract over an open vocabulary, with numbers and
    units, all four citation families, and 1-3 abbreviation definitions
    in both orders ("long form (SF)" and "SF (long form)")."""
    w = _SentenceWriter(rng, gaps=(" ",) * 6 + ("  ", "\n", " \n"))
    n_defs = rng.randint(1, 3)
    defined: set[str] = set()
    while w.size < size or len(defined) < n_defs:
        pieces: list = [_word(rng).capitalize()]
        for _ in range(rng.randint(8, 20)):
            roll = rng.random()
            if roll < 0.3:
                pieces.append(rng.choice(_FUNCTION_WORDS))
            elif roll < 0.4:
                pieces.append(_number(rng))
            elif roll < 0.45:
                pieces.append(_word(rng) + ",")
            else:
                pieces.append(_word(rng))
        if len(defined) < n_defs and rng.random() < 0.5:
            long_form = [_word(rng) for _ in range(rng.randint(2, 4))]
            sf = short_form_of(long_form)
            if sf and sf not in defined:
                defined.add(sf)
                pos = rng.randint(1, len(pieces))
                pieces.insert(pos, ("define", " ".join(long_form), sf,
                                    rng.random() < 0.5))
        family = rng.choice(CITATION_FAMILIES + (None,))
        if family == "superscript":
            # glued to a plain word: "levels.12"
            words = [i for i, p in enumerate(pieces)
                     if isinstance(p, str) and p.isalpha()]
            pieces.insert(rng.choice(words) + 1, ("cite", family))
        elif family == "plain_author_year":
            pieces.insert(rng.randint(1, len(pieces) - 1), _citation(rng, family))
        elif family is not None:
            pieces.append(("cite", family))
        w.sentence(pieces, end=rng.choice((".",) * 8 + ("?", "!")))
    return w.abstract()
