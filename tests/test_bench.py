import dataclasses
import json
import os
import platform
import statistics
from collections import Counter

import numpy as np
import pytest

from bioling import abbrev, bench, segmenter, tokenizer
from bioling.bench import STAGES, _LINK_K, run_bench, run_pipeline
from bioling.doc import Document, detokenize
from bioling.linker import REASON_OUT_OF_VOCABULARY, generate_candidates
from bioling.segmenter import segment
from bioling.tokenizer import default_biomedical_rules, tokenize

from conftest import longest_word_mentions

TEXTS = [
    "Treatment reduced tumor size in mice. Heat shock protein (HSP) levels "
    "rose after exposure [1,2]. Survival improved overall (Smith et al., 2002).",
    "Expression of interleukin-2 (IL-2) was measured. No change was seen "
    "in controls, p>0.05.",
]
CORPUS = [longest_word_mentions(text) for text in TEXTS]


def test_smoke_all_stages(toy_index):
    report = run_bench(CORPUS, reps=2, warmup=1, index=toy_index)
    assert report.n_docs == 2
    assert report.n_sentences >= 4
    assert report.reps == 2 and report.warmup == 1
    assert len(report.per_rep_total_s) == 2
    assert report.ms_per_abstract_median > 0
    assert report.setup_s >= 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert report.hardware_note.endswith(
        f", {cpus} cpus, python {platform.python_version()}, numpy {np.__version__}")


def test_median_consistent():
    # an odd and an even number of repetitions
    for reps in (3, 4):
        report = run_bench(CORPUS, reps=reps, warmup=0)
        per_abs = [t * 1000 / report.n_docs for t in report.per_rep_total_s]
        assert report.ms_per_abstract_median == pytest.approx(statistics.median(per_abs))


def test_as_dict_round_trips_fields():
    # as `bioling bench` prints it
    d = json.loads(json.dumps(dataclasses.asdict(run_bench(CORPUS, reps=1, warmup=0))))
    assert d["n_docs"] == 2
    assert d["stages"] == ["tokenize", "segment", "abbrev"]
    assert isinstance(d["per_rep_total_s"], list)


def test_errors():
    with pytest.raises(ValueError, match="empty corpus"):
        run_bench([])
    with pytest.raises(ValueError, match="reps"):
        run_bench(CORPUS, reps=0)
    with pytest.raises(ValueError, match="warmup must be >= 0"):
        run_bench(CORPUS, warmup=-1)


@pytest.mark.parametrize("with_index", [False, True], ids=["no index", "index"])
def test_stage_times_within_each_rep(toy_index, with_index):
    report = run_bench(CORPUS, reps=3, warmup=0, index=toy_index if with_index else None)
    # the text stages always run, link only with an index; each is timed
    assert report.stages == (STAGES if with_index else STAGES[:3])
    assert report.stages == tuple(report.stage_ms_per_abstract_median)
    assert report.stages == tuple(report.per_rep_stage_s)
    for rep, total in enumerate(report.per_rep_total_s):
        stage_sum = sum(times[rep] for times in report.per_rep_stage_s.values())
        assert 0 < stage_sum <= total
    for stage, times in report.per_rep_stage_s.items():
        assert report.stage_ms_per_abstract_median[stage] == \
            pytest.approx(sorted(times)[1] * 1000 / report.n_docs)


def test_setup_excludes_the_repetitions():
    # the rule parse alone: a 1,000-document repetition runs outside setup_s
    small = run_bench(CORPUS, reps=1)
    report = run_bench(CORPUS * 500, reps=1, warmup=0)
    assert report.n_sentences == 500 * small.n_sentences
    assert report.setup_s < report.per_rep_total_s[0] / 10


def _count_calls(monkeypatch, *targets) -> Counter:
    """Wrap each (module, name) so that its calls are counted by name."""
    calls = Counter()
    for module, name in targets:
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_setup_parses_the_rules_on_every_call(monkeypatch):
    # not a hit in the process-wide caches of the parsed files
    calls = _count_calls(monkeypatch, (tokenizer, "parse_rules"),
                         (segmenter, "parse_segmenter_config"))
    for n in (1, 2):
        run_bench(CORPUS, reps=1, warmup=0)
        assert calls == {"parse_rules": n, "parse_segmenter_config": n}


def test_each_stage_runs_once_per_document_and_repetition(monkeypatch, toy_index):
    calls = _count_calls(monkeypatch, (bench, "tokenize"), (bench, "segment"),
                         (abbrev, "find_abbreviations"), (bench, "generate_candidates"))
    corpus = CORPUS * 5
    n_spans = sum(len(spans) for _, spans in corpus)
    assert n_spans == 5 * len(corpus)
    report = run_bench(corpus, reps=3, warmup=1, index=toy_index)
    runs = (3 + 1) * len(corpus)
    assert report.n_mentions == n_spans
    assert calls == {"tokenize": runs, "segment": runs, "find_abbreviations": runs,
                     "generate_candidates": (3 + 1) * n_spans}


def test_counts_come_from_the_stages_that_ran():
    report = run_bench(CORPUS, reps=1, warmup=0)
    assert report.n_sentences == sum(len(segment(tokenize(t)).sentences) for t in TEXTS)


@pytest.mark.parametrize("reps", [1, 2])
def test_token_and_abbreviation_pair_counts(reps):
    """Tokens and abbreviation pairs of one pass, as an independent chain
    over the corpus counts them."""
    docs = [segment(tokenize(t)) for t in TEXTS]
    n_pairs = sum(len(abbrev.find_abbreviations(doc)) for doc in docs)
    assert n_pairs > 0
    report = run_bench(CORPUS, reps=reps, warmup=0)
    assert report.n_tokens == sum(len(doc.tokens) for doc in docs)
    assert report.n_abbreviation_pairs == n_pairs


def test_link_counters(toy_index):
    """Mentions, out-of-vocabulary mentions and candidate-set sizes of one
    pass, under perfbench's names, whatever the number of repetitions."""
    corpus = [*CORPUS, longest_word_mentions("Xyzzyq plughzz frobnicated quuxes.")]
    sets = []
    for text, spans in corpus:
        doc = segment(tokenize(text))
        expansion = abbrev.expansion_map(abbrev.find_abbreviations(doc))
        sets += [generate_candidates(toy_index, toy_index.alias_table, text[start:end],
                                     _LINK_K, expansion, start, end)
                 for start, end in spans]
    sizes = [len(cs.candidates) for cs in sets]
    n_oov = sum(cs.reason == REASON_OUT_OF_VOCABULARY for cs in sets)
    assert 0 < n_oov < len(sets) and max(sizes) > 1
    for reps in (1, 2):
        report = run_bench(corpus, reps=reps, warmup=0, index=toy_index)
        assert report.n_mentions == len(sets)
        assert report.n_oov_mentions == n_oov
        assert report.link_counters == {
            "linker.candidates_mean": statistics.fmean(sizes),
            "linker.candidates_max": max(sizes),
            "vectorizer.oov_share": n_oov / len(sets),
        }
        assert dataclasses.asdict(report)["link_counters"] == report.link_counters


def test_short_forms_are_queried_by_their_long_form(monkeypatch, toy_index):
    """Link expands a short form with its own document's definitions only."""
    queried = []

    def recorded(*args, fn=bench.generate_candidates):
        cs = fn(*args)
        queried.append((cs.mention, cs.query_text, cs.start, cs.end))
        return cs
    monkeypatch.setattr(bench, "generate_candidates", recorded)
    defines = "Heat shock protein (HSP) levels rose. HSP fell."
    at = defines.rindex("HSP")
    run_bench([(defines, [(at, at + 3)]), ("HSP fell.", [(0, 3)])],
              reps=1, warmup=0, index=toy_index)
    assert queried == [("HSP", "Heat shock protein", at, at + 3), ("HSP", "HSP", 0, 3)]


def test_no_link_counters_without_the_link_stage():
    report = run_bench(CORPUS, reps=1, warmup=0)
    assert report.n_mentions == report.n_oov_mentions == 0
    assert report.link_counters == {}


def test_a_blank_document_keeps_its_whitespace():
    run = run_pipeline(Document(" \t"), STAGES[:1], default_biomedical_rules(), None)
    assert detokenize(run.doc) == " \t"
