"""Candidate generation: mention -> plausible KB concepts.

The mention (after optional abbreviation expansion) is TF-IDF encoded
and its k nearest alias rows (one per alias key) retrieved; each fans out
to every concept it names, so the candidate set may be smaller or larger
than k. Per concept, the best-scoring alias and its cosine are kept.

`Candidate` is a `NamedTuple`, cheap to build tens of times per mention:
tuple equality, indexing and unpacking in field order are part of its
API. `fan_out` keeps a plain (concept id, alias, cosine) tuple per concept
as first seen, ranks them with two stable sorts keyed by `itemgetter`
(concept id, then cosine, best first) and builds each `Candidate` with
`tuple.__new__`, as `tokenize` builds tokens. `generate_candidates`
calls `encode` and `nearest_aliases` through the index's instances, so a
tracer can shadow them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, NamedTuple

from .index import AliasIndex

REASON_OUT_OF_VOCABULARY = "out_of_vocabulary"

_concept_id, _similarity = itemgetter(0), itemgetter(2)


class Candidate(NamedTuple):
    concept_id: str
    alias: str
    similarity: float


@dataclass(frozen=True)
class CandidateSet:
    mention: str
    query_text: str
    candidates: tuple[Candidate, ...]
    start: int | None = None
    end: int | None = None
    reason: str | None = None

    def concept_ids(self) -> set[str]:
        return {c.concept_id for c in self.candidates}


def generate_candidates(
    index: AliasIndex,
    alias_table: object,
    mention: str,
    k: int,
    expansion: Mapping[str, str] | None = None,
    start: int | None = None,
    end: int | None = None,
) -> CandidateSet:
    """Deduplicated concept candidates for one mention string. Each alias
    row fans out to its concept ids in `index.alias_table`; the ignored
    `alias_table` argument is kept for callers that pass that table."""
    if not mention:
        raise ValueError("mention must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    query_text = expansion.get(mention, mention) if expansion else mention
    query = index.vectorizer.encode(query_text)
    if query.is_zero:
        return CandidateSet(mention, query_text, (), start, end,
                            reason=REASON_OUT_OF_VOCABULARY)
    return CandidateSet(mention, query_text, fan_out(index, index.nearest_aliases(query, k)),
                        start, end)


def fan_out(index: AliasIndex, hits: list[tuple[str, float]]) -> tuple[Candidate, ...]:
    """The concepts of the alias rows `hits`, (alias, cosine) pairs best
    first with ties in alias order, as `nearest_aliases` returns them. Each
    concept comes once, with its first and so best alias, ranked by
    cosine, then concept id."""
    table = index.alias_table
    best: dict[str, tuple[str, str, float]] = {}
    for alias, sim in hits:
        for cid in table[alias]:
            if cid not in best:
                best[cid] = (cid, alias, sim)
    # two stable sorts: by concept id, then by cosine, best first
    ranked = sorted(best.values(), key=_concept_id)
    ranked.sort(key=_similarity, reverse=True)
    new = tuple.__new__
    return tuple([new(Candidate, c) for c in ranked])
