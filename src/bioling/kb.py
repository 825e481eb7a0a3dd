"""Knowledge-base ingestion, validation and persistence.

The KB format is JSONL, one concept per line:

    {"concept_id": str, "canonical_name": str, "aliases": [str],
     "types": [str], "definition": str|null}

Aliases are many-to-many: one normalized alias string may map to several
concepts. Normalization is applied to lookup keys only; original alias
surfaces are kept for display and vectorizer input.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

__all__ = [
    "Concept", "KnowledgeBase", "KBFormatError", "KBStats",
    "load_kb", "save_kb", "normalize_alias", "kb_stats", "first_non_utf8_line",
]


class KBFormatError(ValueError):
    """Raised when a KB file violates the format or its invariants."""


@dataclass(frozen=True)
class Concept:
    concept_id: str
    canonical_name: str
    aliases: tuple[str, ...]
    types: tuple[str, ...] = ()
    definition: str | None = None

    @property
    def has_definition(self) -> bool:
        return self.definition is not None


@dataclass(frozen=True)
class KBStats:
    n_concepts: int
    n_aliases: int
    n_shared_aliases: int
    bytes_on_disk: int


@dataclass
class KnowledgeBase:
    concepts: dict[str, Concept] = field(default_factory=dict)
    alias_table: dict[str, frozenset[str]] = field(default_factory=dict)
    source_path: str | None = None

    def alias_surfaces(self) -> list[str]:
        """Distinct original alias surfaces, in KB insertion order."""
        seen: dict[str, None] = {}
        for concept in self.concepts.values():
            for alias in concept.aliases:
                seen.setdefault(alias)
        return list(seen)


def normalize_alias(s: str) -> str:
    """Lowercase, collapse internal whitespace, strip; idempotent."""
    return " ".join(s.split()).lower()


def _parse_concept(obj: dict, lineno: int) -> tuple[Concept, list[str]]:
    """The concept on a line, and the normalized key of each of its aliases."""
    try:
        concept_id = obj["concept_id"]
        canonical = obj["canonical_name"]
    except KeyError as exc:
        raise KBFormatError(f"line {lineno}: missing field {exc}") from exc
    if not isinstance(concept_id, str) or not concept_id:
        raise KBFormatError(f"line {lineno}: concept_id must be a nonempty string")
    if not isinstance(canonical, str) or not canonical:
        raise KBFormatError(f"line {lineno}: canonical_name must be a nonempty string")
    aliases = obj.get("aliases", [])
    types = obj.get("types", [])
    definition = obj.get("definition")
    if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
        raise KBFormatError(f"line {lineno}: aliases must be a list of strings")
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise KBFormatError(f"line {lineno}: types must be a list of strings")
    if definition is not None and not isinstance(definition, str):
        raise KBFormatError(f"line {lineno}: definition must be a string or null")
    # canonical name is always an alias of its own concept
    keys = [normalize_alias(a) for a in aliases]
    canonical_key = normalize_alias(canonical)
    if canonical_key not in keys:
        aliases = [canonical, *aliases]
        keys = [canonical_key, *keys]
    return Concept(concept_id, canonical, tuple(aliases), tuple(types), definition), keys


def _check_utf8(concept: Concept, lineno: int) -> None:
    """Reject a lone surrogate (from a JSON escape such as "\\ud800") in
    any string of the concept: it cannot be written out as UTF-8."""
    fields = [("concept_id", [concept.concept_id]),
              ("canonical_name", [concept.canonical_name]),
              ("aliases", concept.aliases), ("types", concept.types)]
    if concept.definition is not None:
        fields.append(("definition", [concept.definition]))
    for name, values in fields:
        for value in values:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise KBFormatError(
                    f"line {lineno}: {name} is not valid UTF-8 text "
                    f"(lone surrogate U+{ord(value[exc.start]):04X})") from None


def load_kb(path: str) -> KnowledgeBase:
    """Load and validate a KB file; raises KBFormatError with line context."""
    concepts: dict[str, Concept] = {}
    table: dict[str, set[str]] = {}
    try:
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise KBFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise KBFormatError(
                        f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
                concept, keys = _parse_concept(obj, lineno)
                # the file decoded as UTF-8, so only a \u escape can make a
                # surrogate; lines without one skip the check
                if "\\u" in line:
                    _check_utf8(concept, lineno)
                if concept.concept_id in concepts:
                    raise KBFormatError(
                        f"line {lineno}: duplicate concept_id {concept.concept_id!r}"
                    )
                concepts[concept.concept_id] = concept
                for key in keys:
                    table.setdefault(key, set()).add(concept.concept_id)
    except UnicodeDecodeError:
        raise KBFormatError(
            f"line {first_non_utf8_line(path)}: not valid UTF-8") from None
    alias_table = {k: frozenset(v) for k, v in table.items()}
    return KnowledgeBase(concepts, alias_table, source_path=path)


def first_non_utf8_line(path: str) -> int | None:
    """The 1-based number of the first line of the file at `path` that is
    not valid UTF-8, or None if every line decodes."""
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


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
