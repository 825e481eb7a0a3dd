"""The document pipeline and its wall-clock throughput harness.

`run_pipeline` runs one document through the stages a caller names, as
the stream commands of `bioling` do, timing each stage. `run_bench` times
it over a corpus of documents, each a text and its mention spans: the
text stages (tokenize, segment, abbrev) always run, and link runs when an
index is given. Warmup repetitions run untimed, then each timed
repetition processes the whole corpus. `setup_s` times the parse of the
shipped rule files; the caller loads the index. The headline number is
the median per-abstract time over repetitions; the stage times of a
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
from typing import NamedTuple, Sequence

import numpy as np

from . import abbrev as abbrev_mod
from .doc import AbbreviationPair, Document
from .index import AliasIndex
from .linker import REASON_OUT_OF_VOCABULARY, CandidateSet, generate_candidates
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


class PipelineRun(NamedTuple):
    doc: Document
    pairs: list[AbbreviationPair]
    candidate_sets: list[CandidateSet]
    stage_ns: tuple[int, ...]  # nanoseconds per stage of `STAGES`, named or not


def run_pipeline(doc: Document, stages: Sequence[str], rules: TokenizerRules,
                 seg_config: SegmenterConfig | None, index: AliasIndex | None = None,
                 spans: Sequence[tuple[int, int]] = (), k: int = _LINK_K) -> PipelineRun:
    """Run `doc` through the named `stages`, in `STAGES` order: tokenize
    it if it has no tokens, segment it if it has no sentences, find its
    abbreviation pairs, and link each of its `spans` in `index` to at most
    `k` candidates, expanding the document's own short forms, with each
    stage's nanoseconds."""
    clock = time.perf_counter_ns
    pairs, expansion, sets = [], None, []
    t0 = clock()
    if "tokenize" in stages and not doc.tokens:
        doc = tokenize(doc.text, rules)
    t1 = clock()
    if "segment" in stages and not doc.sentences:
        doc = segment(doc, seg_config)
    t2 = clock()
    if "abbrev" in stages:
        pairs = abbrev_mod.find_abbreviations(doc)
        expansion = abbrev_mod.expansion_map(pairs)
    t3 = clock()
    if "link" in stages:
        sets = [generate_candidates(index, index.alias_table, doc.text[start:end], k,
                                    expansion, start, end)
                for start, end in spans]
    t4 = clock()
    return PipelineRun(doc, pairs, sets, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))


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

    def one_pass():
        """The stage nanoseconds, as `PipelineRun.stage_ns`, and counts of a pass."""
        stage_ns, counts = [0] * len(STAGES), Counter()
        for text, spans in corpus:
            run = run_pipeline(Document(text), ran, rules, seg_config, index, spans)
            stage_ns = [a + b for a, b in zip(stage_ns, run.stage_ns)]
            counts.update(tokens=len(run.doc.tokens), sentences=len(run.doc.sentences),
                          pairs=len(run.pairs), mentions=len(run.candidate_sets))
            for cs in run.candidate_sets:
                counts["oov"] += cs.reason == REASON_OUT_OF_VOCABULARY
                counts["candidates"] += len(cs.candidates)
                counts["candidates_max"] = max(counts["candidates_max"], len(cs.candidates))
        return stage_ns, counts

    for _ in range(warmup):
        one_pass()

    per_rep: list[float] = []
    per_rep_stage: dict[str, list[float]] = {s: [] for s in ran}
    cpu0 = time.process_time()
    for _ in range(reps):
        # every repetition gives the same counts; the last one's are kept
        t0 = time.perf_counter_ns()
        stage_ns, counts = one_pass()
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
