"""Knowledge-base ingestion, validation and persistence.

The KB format is JSONL, one concept per line:

    {"concept_id": str, "canonical_name": str, "aliases": [str],
     "types": [str], "definition": str|null}

Aliases are many-to-many: one normalized alias string may map to several
concepts. Normalization is applied to lookup keys only; original alias
surfaces are kept for display and vectorizer input. A concept's
canonical name leads its aliases unless one of them has the same key.
`load_kb` keeps only the concepts. `KnowledgeBase.alias_table`, derived
from them on first use, is the one grouping of aliases by key: the rows
`build_index` indexes and keeps.

Equal strings are kept once: a canonical name that is literally one of
its concept's aliases is that alias's string, the concepts of one load
with equal type lists share one `types` tuple, and `normalize_alias`
returns an already normalized alias itself, so the keys `alias_table`
groups by hold no second copy of it.

Input is checked where it enters: `load_kb` validates each line as
`lines.open_lines` reads it, and a bad one raises KBFormatError.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter

from .lines import InputError, Lines, open_lines

__all__ = [
    "Concept", "KnowledgeBase", "KBFormatError", "KBStats",
    "load_kb", "save_kb", "normalize_alias", "kb_stats",
]


class KBFormatError(InputError):
    """Raised when a line of a KB file violates the format or its invariants."""


@dataclass(frozen=True, slots=True)
class Concept:
    concept_id: str
    canonical_name: str
    aliases: tuple[str, ...]
    types: tuple[str, ...] = ()
    definition: str | None = None


@dataclass(frozen=True)
class KBStats:
    n_concepts: int
    n_aliases: int
    n_shared_aliases: int
    bytes_on_disk: int


@dataclass
class KnowledgeBase:
    concepts: dict[str, Concept] = field(default_factory=dict)

    @cached_property
    def alias_table(self) -> dict[str, tuple[str, ...]]:
        """A row per normalized alias key, in surface order: the key's smallest
        surface, with its concept ids, sorted and unique. One pass over the
        (concept, alias) pairs normalizes each once; kept once derived."""
        # key -> (smallest surface, concept id of each pair): a tuple while the
        # key has one pair, which the garbage collector stops tracking, then a
        # list extended in place. Rebuilding the tuple at each pair took 9.3 s
        # for 40k concepts of one alias, against 0.03 s; every row a list, which
        # it tracks to the end, took ~0.06 s longer on a 100k-alias KB (2-core
        # VM). An already normalized alias is its own key, not a copy
        by_key: dict[str, tuple[str, str] | list[str]] = {}
        for concept in self.concepts.values():
            cid = concept.concept_id
            for alias in concept.aliases:
                key = normalize_alias(alias)
                row = by_key.get(key)
                if row is None:
                    by_key[key] = (alias, cid)
                elif type(row) is tuple:
                    by_key[key] = [min(alias, row[0]), row[1], cid]
                else:
                    row[0] = min(alias, row[0])
                    row.append(cid)
        # surfaces of distinct keys differ, so rows sort by surface alone (at
        # 1M aliases in 1.0 s, against 2.2 s comparing whole rows)
        rows = sorted(by_key.values(), key=itemgetter(0))
        # free the keys first, so the copies of the ids can reuse their memory
        del by_key
        # most keys have one pair, whose id needs no sorting
        return {row[0]: row[1:] if len(row) == 2 else tuple(sorted(set(row[1:])))
                for row in rows}

    def alias_surfaces(self) -> list[str]:
        """Distinct original alias surfaces, in KB insertion order."""
        aliases = map(attrgetter("aliases"), self.concepts.values())
        return list(dict.fromkeys(itertools.chain.from_iterable(aliases)))


def normalize_alias(s: str) -> str:
    """Lowercase, collapse internal whitespace, strip; idempotent. An
    already normalized `s` is returned itself, not an equal copy."""
    key = " ".join(s.split()).lower()
    return s if key == s else key


def _parse_concept(obj: dict, lines: Lines, lineno: int,
                   shared_types: dict[tuple[str, ...], tuple[str, ...]]) -> Concept:
    """The concept on a line; its canonical name leads its aliases unless
    one of them has the same normalized key. Its `types` tuple is the one
    in `shared_types` equal to it, which it joins if there is none."""
    try:
        concept_id = obj["concept_id"]
        canonical = obj["canonical_name"]
    except KeyError as exc:
        raise lines.error(lineno, f"missing field {exc}") from exc
    if not isinstance(concept_id, str) or not concept_id:
        raise lines.error(lineno, "concept_id must be a nonempty string")
    if not isinstance(canonical, str) or not canonical:
        raise lines.error(lineno, "canonical_name must be a nonempty string")
    aliases = obj.get("aliases", [])
    types = obj.get("types", [])
    definition = obj.get("definition")
    if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
        raise lines.error(lineno, "aliases must be a list of strings")
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise lines.error(lineno, "types must be a list of strings")
    if definition is not None and not isinstance(definition, str):
        raise lines.error(lineno, "definition must be a string or null")
    # a blank name normalizes to the key "", which no query reaches
    if canonical.isspace():
        raise lines.error(lineno, f"canonical_name is blank: {canonical!r}")
    for i, alias in enumerate(aliases):
        if not alias or alias.isspace():
            raise lines.error(lineno, f"aliases[{i}] is blank: {alias!r}")
    # canonical name is always an alias of its own concept; a literal
    # match needs no normalizing, and the alias's string serves for both
    if canonical in aliases:
        canonical = aliases[aliases.index(canonical)]
    elif normalize_alias(canonical) not in map(normalize_alias, aliases):
        aliases = [canonical, *aliases]
    types = tuple(types)
    return Concept(concept_id, canonical, tuple(aliases),
                   shared_types.setdefault(types, types), definition)


def load_kb(path: str) -> KnowledgeBase:
    """Load and validate a KB file, or standard input for "-"; a bad line
    raises KBFormatError naming the file and the line."""
    concepts: dict[str, Concept] = {}
    shared_types: dict[tuple[str, ...], tuple[str, ...]] = {}
    with open_lines(path, KBFormatError) as lines:
        for lineno, line in lines:
            concept = _parse_concept(lines.json_object(lineno, line), lines, lineno, shared_types)
            if concept.concept_id in concepts:
                raise lines.error(lineno, f"duplicate concept_id {concept.concept_id!r}")
            concepts[concept.concept_id] = concept
    return KnowledgeBase(concepts)


def save_kb(kb: KnowledgeBase, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for concept in kb.concepts.values():
            fp.write(json.dumps({
                "concept_id": concept.concept_id,
                "canonical_name": concept.canonical_name,
                "aliases": list(concept.aliases),
                "types": list(concept.types),
                "definition": concept.definition,
            }, ensure_ascii=False))
            fp.write("\n")


def kb_stats(kb: KnowledgeBase, bytes_on_disk: int = 0) -> KBStats:
    """The counts of `kb`, with `bytes_on_disk` the size of the file it was
    read from, which only its reader knows."""
    shared = sum(1 for ids in kb.alias_table.values() if len(ids) > 1)
    return KBStats(
        n_concepts=len(kb.concepts),
        n_aliases=len(kb.alias_table),
        n_shared_aliases=shared,
        bytes_on_disk=bytes_on_disk,
    )
