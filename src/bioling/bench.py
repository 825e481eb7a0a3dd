"""Wall-clock throughput harness.

Times the pipeline over a corpus of documents, each a text and its
mention spans: the text stages (tokenize, segment, abbrev) always run,
and link runs when an index is given, querying each span with the
document's own abbreviation expansions, as `bioling link` does. Warmup
repetitions run untimed, then each timed repetition processes the whole
corpus. `setup_s` times the parse of the shipped rule files; the caller
loads the index. The headline number is the median per-abstract time over
repetitions; each stage is also timed on its own, so the stage times of a
repetition add up to at most its total. Counts are read off the timed
runs, outside the stage clocks: tokens, sentences and abbreviation pairs,
and with link mentions, out-of-vocabulary mentions and perfbench-named
counters. `bioling bench` prints the report as one JSON object.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import abbrev as abbrev_mod
from .index import AliasIndex
from .linker import REASON_OUT_OF_VOCABULARY, generate_candidates
from .segmenter import SegmenterConfig, default_segmenter_config, segment
from .tokenizer import TokenizerRules, default_biomedical_rules, tokenize

STAGES = ("tokenize", "segment", "abbrev", "link")

_LINK_K = 25


@dataclass(frozen=True)
class BenchReport:
    stages: tuple[str, ...]
    n_docs: int
    n_sentences: int
    reps: int
    warmup: int
    ms_per_abstract_median: float
    setup_s: float
    hardware_note: str
    cpu_total_s: float = 0.0
    per_rep_total_s: tuple[float, ...] = ()
    # per stage that ran, in the order of `stages`
    stage_ms_per_abstract_median: dict[str, float] = field(default_factory=dict)
    per_rep_stage_s: dict[str, tuple[float, ...]] = field(default_factory=dict)
    # with the link stage: mentions linked per pass, those out of
    # vocabulary, and `linker.candidates_mean`, `linker.candidates_max`
    # and `vectorizer.oov_share`
    n_mentions: int = 0
    n_oov_mentions: int = 0
    link_counters: dict[str, float] = field(default_factory=dict)
    # tokens and abbreviation pairs per pass
    n_tokens: int = 0
    n_abbreviation_pairs: int = 0


def _process(
    text: str,
    spans: Sequence[tuple[int, int]],
    rules: TokenizerRules,
    seg_cfg: SegmenterConfig,
    index: AliasIndex | None,
    stage_ns: list[int],
    counts: Counter,
) -> None:
    """Run one document through `STAGES`, linking its `spans` only with an
    `index`, adding each stage's nanoseconds to `stage_ns` (indexed as
    `STAGES`), then, outside the clocks, the document's counts to `counts`."""
    clock = time.perf_counter_ns
    t0 = clock()
    doc = tokenize(text, rules)
    t1 = clock()
    doc = segment(doc, seg_cfg)
    t2 = clock()
    pairs = abbrev_mod.find_abbreviations(doc)
    expansion = abbrev_mod.expansion_map(pairs)
    t3 = clock()
    if index is not None:
        sets = [generate_candidates(index, index.alias_table, text[start:end], _LINK_K,
                                    expansion, start, end)
                for start, end in spans]
        stage_ns[3] += clock() - t3
        for cs in sets:
            counts["mentions"] += 1
            counts["oov"] += cs.reason == REASON_OUT_OF_VOCABULARY
            counts["candidates"] += len(cs.candidates)
            counts["candidates_max"] = max(counts["candidates_max"], len(cs.candidates))
    stage_ns[0] += t1 - t0
    stage_ns[1] += t2 - t1
    stage_ns[2] += t3 - t2
    counts["tokens"] += len(doc.tokens)
    counts["sentences"] += len(doc.sentences)
    counts["pairs"] += len(pairs)


def run_bench(
    corpus: Sequence[tuple[str, Sequence[tuple[int, int]]]],
    reps: int = 3,
    warmup: int = 1,
    index: AliasIndex | None = None,
) -> BenchReport:
    if not corpus:
        raise ValueError("empty corpus")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")

    # the parse itself, not the process-wide cache of its result
    setup_start = time.perf_counter()
    rules = default_biomedical_rules.__wrapped__()
    seg_config = default_segmenter_config.__wrapped__()
    setup_s = time.perf_counter() - setup_start

    ran = STAGES if index is not None else STAGES[:3]

    def one_pass(stage_ns, counts):
        for text, spans in corpus:
            _process(text, spans, rules, seg_config, index, stage_ns, counts)

    for _ in range(warmup):
        one_pass([0] * len(STAGES), Counter())

    per_rep: list[float] = []
    per_rep_stage: dict[str, list[float]] = {s: [] for s in ran}
    cpu0 = time.process_time()
    for _ in range(reps):
        # every repetition gives the same counts; the last one's are kept
        stage_ns, counts = [0] * len(STAGES), Counter()
        t0 = time.perf_counter_ns()
        one_pass(stage_ns, counts)
        per_rep.append((time.perf_counter_ns() - t0) / 1e9)
        for s, ns in zip(ran, stage_ns):
            per_rep_stage[s].append(ns / 1e9)
    cpu_total = time.process_time() - cpu0

    n_mentions = counts["mentions"]
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return BenchReport(
        stages=ran,
        n_docs=len(corpus),
        n_sentences=counts["sentences"],
        reps=reps,
        warmup=warmup,
        ms_per_abstract_median=statistics.median(per_rep) * 1000.0 / len(corpus),
        setup_s=setup_s,
        hardware_note=f"{platform.processor() or platform.machine()}, {n_cpus} cpus, "
                      f"python {platform.python_version()}, numpy {np.__version__}",
        cpu_total_s=cpu_total,
        per_rep_total_s=tuple(per_rep),
        stage_ms_per_abstract_median={
            s: statistics.median(t) * 1000.0 / len(corpus) for s, t in per_rep_stage.items()
        },
        per_rep_stage_s={s: tuple(t) for s, t in per_rep_stage.items()},
        n_mentions=n_mentions,
        n_oov_mentions=counts["oov"],
        link_counters={
            "linker.candidates_mean": counts["candidates"] / n_mentions,
            "linker.candidates_max": counts["candidates_max"],
            "vectorizer.oov_share": counts["oov"] / n_mentions,
        } if n_mentions else {},
        n_tokens=counts["tokens"],
        n_abbreviation_pairs=counts["pairs"],
    )
