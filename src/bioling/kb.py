"""Knowledge-base ingestion, validation and persistence.

The KB format is JSONL, one concept per line:

    {"concept_id": str, "canonical_name": str, "aliases": [str],
     "types": [str], "definition": str|null}

Aliases are many-to-many: one normalized alias string may map to several
concepts. Normalization is applied to lookup keys only; original alias
surfaces are kept for display and vectorizer input. A concept's
canonical name leads its aliases unless one of them has the same key.
`load_kb` keeps only the concepts: `KnowledgeBase.alias_table` (key ->
concept ids) is derived from them on first use, and `build_index` does
not use it, so an index build never holds it.

Equal strings are kept once: a canonical name that is literally one of
its concept's aliases is that alias's string, the concepts of one load
with equal type lists share one `types` tuple, and `normalize_alias`
returns an already normalized alias itself, so a key table holds no
second copy of it.

Input is checked where it enters: `load_kb` validates each line as
`lines.open_lines` reads it, and a bad one raises KBFormatError.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

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
    source_path: str | None = field(default=None, kw_only=True)

    @cached_property
    def alias_table(self) -> dict[str, frozenset[str]]:
        """Each normalized alias key, in order of first appearance, with the
        ids of the concepts that have it; derived from `concepts` on first
        use and kept."""
        table: dict[str, set[str]] = {}
        for concept in self.concepts.values():
            for alias in concept.aliases:
                table.setdefault(normalize_alias(alias), set()).add(concept.concept_id)
        return {key: frozenset(ids) for key, ids in table.items()}

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
            line = line.strip()
            if not line:
                continue
            obj = lines.json_object(lineno, line)
            concept = _parse_concept(obj, lines, lineno, shared_types)
            if concept.concept_id in concepts:
                raise lines.error(lineno, f"duplicate concept_id {concept.concept_id!r}")
            concepts[concept.concept_id] = concept
    # standard input has no file to size, whatever file is named "-"
    return KnowledgeBase(concepts, source_path=None if path == "-" else path)


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


def kb_stats(kb: KnowledgeBase) -> KBStats:
    shared = sum(1 for ids in kb.alias_table.values() if len(ids) > 1)
    size = 0
    if kb.source_path is not None and os.path.exists(kb.source_path):
        size = os.path.getsize(kb.source_path)
    return KBStats(
        n_concepts=len(kb.concepts),
        n_aliases=len(kb.alias_table),
        n_shared_aliases=shared,
        bytes_on_disk=size,
    )
