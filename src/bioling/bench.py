"""Wall-clock throughput harness.

Times the requested pipeline stages over a corpus of raw abstracts:
warmup repetitions run untimed, then each timed repetition processes the
whole corpus. Rule/index loading happens before the clock starts and is
reported separately. The headline number is the median per-abstract time
over repetitions.
"""

from __future__ import annotations

import platform
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from . import abbrev as abbrev_mod
from .index import AliasIndex
from .linker import generate_candidates
from .segmenter import SegmenterConfig, default_segmenter_config, segment
from .tokenizer import TokenizerRules, default_biomedical_rules, tokenize

STAGES = ("tokenize", "segment", "abbrev", "link")

# how many mentions the link stage queries per document
_LINK_MENTIONS_PER_DOC = 5
_LINK_K = 25


@dataclass(frozen=True)
class BenchReport:
    stages: tuple[str, ...]
    n_docs: int
    n_sentences: int
    reps: int
    warmup: int
    total_wall_s: float
    ms_per_abstract_median: float
    ms_per_abstract_mean: float
    ms_per_sentence_median: float
    setup_s: float
    hardware_note: str
    cpu_total_s: float = 0.0
    per_rep_total_s: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "stages": list(self.stages),
            "n_docs": self.n_docs,
            "n_sentences": self.n_sentences,
            "reps": self.reps,
            "warmup": self.warmup,
            "total_wall_s": self.total_wall_s,
            "ms_per_abstract_median": self.ms_per_abstract_median,
            "ms_per_abstract_mean": self.ms_per_abstract_mean,
            "ms_per_sentence_median": self.ms_per_sentence_median,
            "setup_s": self.setup_s,
            "hardware_note": self.hardware_note,
            "cpu_total_s": self.cpu_total_s,
            "per_rep_total_s": list(self.per_rep_total_s),
        }


def _bench_mentions(doc) -> list[str]:
    """Deterministic mention sample: the longest alphabetic token surfaces."""
    words = sorted(
        {t.surface for t in doc.tokens if t.surface.isalpha() and len(t.surface) > 3},
        key=lambda w: (-len(w), w),
    )
    return words[:_LINK_MENTIONS_PER_DOC]


def _process(
    text: str,
    stages: frozenset[str],
    rules: TokenizerRules,
    seg_cfg: SegmenterConfig,
    index: AliasIndex | None,
) -> None:
    doc = tokenize(text, rules)
    if {"segment", "abbrev", "link"} & stages:
        doc = segment(doc, seg_cfg)
    expansion = None
    if {"abbrev", "link"} & stages:
        expansion = abbrev_mod.expansion_map(abbrev_mod.find_abbreviations(doc))
    if "link" in stages:
        for mention in _bench_mentions(doc):
            generate_candidates(index, index.alias_table, mention, _LINK_K, expansion)


def run_bench(
    corpus: Sequence[str],
    stages: Sequence[str],
    reps: int = 3,
    warmup: int = 1,
    index: AliasIndex | None = None,
) -> BenchReport:
    if not corpus:
        raise ValueError("empty corpus")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    stage_set = frozenset(stages)
    unknown = stage_set - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    if "link" in stage_set and index is None:
        raise ValueError("link stage requested without an index")

    setup_start = time.perf_counter()
    rules = default_biomedical_rules()
    seg_config = default_segmenter_config()
    # sentence counts come from one untimed segmenter pass
    n_sentences = sum(
        len(segment(tokenize(text, rules), seg_config).sentences) for text in corpus
    )
    setup_s = time.perf_counter() - setup_start

    def one_pass():
        for text in corpus:
            _process(text, stage_set, rules, seg_config, index)

    for _ in range(warmup):
        one_pass()

    per_rep: list[float] = []
    cpu0 = time.process_time()
    for _ in range(reps):
        t0 = time.perf_counter()
        one_pass()
        per_rep.append(time.perf_counter() - t0)
    cpu_total = time.process_time() - cpu0

    per_abstract_ms = [t * 1000.0 / len(corpus) for t in per_rep]
    per_sentence_ms = [
        t * 1000.0 / n_sentences if n_sentences else 0.0 for t in per_rep
    ]
    return BenchReport(
        stages=tuple(s for s in STAGES if s in stage_set),
        n_docs=len(corpus),
        n_sentences=n_sentences,
        reps=reps,
        warmup=warmup,
        total_wall_s=sum(per_rep),
        ms_per_abstract_median=statistics.median(per_abstract_ms),
        ms_per_abstract_mean=statistics.fmean(per_abstract_ms),
        ms_per_sentence_median=statistics.median(per_sentence_ms),
        setup_s=setup_s,
        hardware_note=f"{platform.processor() or platform.machine()}, "
                      f"python {platform.python_version()}",
        cpu_total_s=cpu_total,
        per_rep_total_s=tuple(per_rep),
    )
