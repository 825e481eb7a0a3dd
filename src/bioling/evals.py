"""Evaluation methodology: recall@K curves, segmentation accuracy and the
synthetic citation corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .doc import Document
from .linker import fan_out

CITATION_FAMILIES = (
    "bracket_numeric",
    "paren_author_year",
    "plain_author_year",
    "superscript",
)

_AUTHORS = (
    "Smith", "Jones", "Chen", "Kim", "Garcia", "Miller", "Tanaka", "Novak",
    "Patel", "Schmidt", "Rossi", "Dubois", "Larsen", "Kowalski", "Ivanov",
    "Nakamura", "Silva", "Haddad", "Olsen", "Weber",
)
_VARIANTS_PER_SENTENCE = len(CITATION_FAMILIES) * 99


@dataclass(frozen=True)
class GoldMention:
    mention: str
    gold_concept_id: str

    def __post_init__(self):
        if not self.mention or not self.gold_concept_id:
            raise ValueError("gold mention fields must be nonempty")


@dataclass(frozen=True)
class RecallPoint:
    k: int
    recall: float
    mean_candidates: float
    max_candidates: int


@dataclass(frozen=True)
class SegmentationAccuracy:
    sentence_acc: float
    abstract_acc: float


def recall_at_k(
    index,
    gold: Sequence[GoldMention],
    ks: Sequence[int],
    expansion: Mapping[str, str] | None = None,
) -> tuple[RecallPoint, ...]:
    """The recall curve: for each k of `ks`, in order, the fraction of gold
    mentions whose concept appears among the candidates at k."""
    if not gold:
        raise ValueError("empty gold mention set")
    if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be nonempty and strictly increasing from 1 or more")
    hits = dict.fromkeys(ks, 0)
    counts: dict[int, list[int]] = {k: [] for k in ks}
    for gm in gold:
        query_text = expansion.get(gm.mention, gm.mention) if expansion else gm.mention
        # one search at the largest K: the search at each smaller k gives
        # its first k rows, which are ranked by one total order (score,
        # then alias) before the cut
        rows = index.nearest_aliases(index.vectorizer.encode(query_text), ks[-1])
        for k in ks:
            candidates = fan_out(index, rows[:k])
            counts[k].append(len(candidates))
            hits[k] += any(c.concept_id == gm.gold_concept_id for c in candidates)
    return tuple(RecallPoint(k=k, recall=hits[k] / len(gold),
                             mean_candidates=sum(counts[k]) / len(gold),
                             max_candidates=max(counts[k]))
                 for k in ks)


def segmentation_accuracy(
    pred_docs: Sequence[Document], gold_docs: Sequence[Document]
) -> SegmentationAccuracy:
    """Exact-span sentence accuracy and all-boundaries-correct abstract
    accuracy over aligned document lists."""
    if len(pred_docs) != len(gold_docs):
        raise ValueError("prediction and gold document counts differ")
    if not gold_docs:
        raise ValueError("empty evaluation set")
    n_gold_sents = 0
    n_hits = 0
    n_perfect = 0
    for i, (pred, gold) in enumerate(zip(pred_docs, gold_docs)):
        if pred.text != gold.text:
            raise ValueError(f"document {i}: text mismatch between pred and gold")
        pred_spans = {pred.sentence_char_span(s) for s in pred.sentences}
        gold_spans = [gold.sentence_char_span(s) for s in gold.sentences]
        hits = sum(1 for span in gold_spans if span in pred_spans)
        n_gold_sents += len(gold_spans)
        n_hits += hits
        if hits == len(gold_spans) and len(pred_spans) == len(gold_spans):
            n_perfect += 1
    return SegmentationAccuracy(
        sentence_acc=n_hits / n_gold_sents if n_gold_sents else 1.0,
        abstract_acc=n_perfect / len(gold_docs),
    )


def _inject_citation(sentence: str, family: str, rng: random.Random) -> str:
    words = sentence.split()
    # insertion point away from the very start and the final word
    pos = rng.randrange(1, max(2, len(words) - 1))
    if family == "bracket_numeric":
        nums = sorted(rng.sample(range(1, 100), rng.choice((1, 2, 3))))
        cite = "[" + ",".join(map(str, nums)) + "]"
        words.insert(pos, cite)
    elif family == "paren_author_year":
        author = rng.choice(_AUTHORS)
        year = rng.randint(1980, 2023)
        cite = f"({author} et al., {year})"
        words.insert(pos, cite)
    elif family == "plain_author_year":
        author = rng.choice(_AUTHORS)
        year = rng.randint(1980, 2023)
        words.insert(pos, f"{author} et al. {year}")
    elif family == "superscript":
        num = rng.randint(1, 99)
        pos = min(pos, len(words) - 1)  # a one-word sentence has no word 1
        words[pos] = words[pos].rstrip(".,;") + f".{num}"
    else:
        raise ValueError(f"unknown citation family {family!r}")
    return " ".join(words)


def make_citation_corpus(
    base_sentences: Sequence[str],
    seed: int,
    n: int,
) -> list[tuple[str, str]]:
    """Deterministically inject one citation into each of n sentences, as
    (sentence, citation family) pairs; the family lets a caller score a
    subset, such as the families a naive segmenter splits.

    Input sentences must be citation-free single sentences of one or more
    words.
    """
    if not base_sentences:
        raise ValueError("empty base sentence set")
    for i, base in enumerate(base_sentences):
        if not base.split():
            raise ValueError(f"base sentence {i} has no words")
    capacity = len(base_sentences) * _VARIANTS_PER_SENTENCE
    if n > capacity:
        raise ValueError(f"requested {n} sentences but capacity is {capacity}")
    rng = random.Random(seed)
    out = []
    for i in range(n):
        base = base_sentences[i % len(base_sentences)]
        family = CITATION_FAMILIES[rng.randrange(len(CITATION_FAMILIES))]
        sent = _inject_citation(base, family, rng)
        out.append((sent, family))
    return out
