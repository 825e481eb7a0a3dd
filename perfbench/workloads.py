"""The benchmark's workloads: inputs, set-up, the timed operation and the
checks on its outputs.

A workload's `run` is the one operation the timed loop measures: a whole
document through the text pipeline, or one mention through the linker.
Input generation, `observe` (checks and counts) and the oracle comparison
run outside the timed interval.
"""

from __future__ import annotations

import os
import random

import numpy as np

import gen

K = 25
MIN_DF = 10
ORACLE_SAMPLE = 25
# chunk reuse is measured on the first operations only, so the set of
# seen chunks has the same size in every run and does not move peak RSS
CHUNK_SAMPLE = 1000


def program_calls(bioling) -> dict:
    """The public functions of each layer the benchmark calls, keyed
    "<layer>.<function>" so traced and untraced runs share one code path."""
    layers = {
        "tokenizer": ("tokenize", "default_biomedical_rules"),
        "segmenter": ("segment", "default_segmenter_config"),
        "abbrev": ("find_abbreviations", "expansion_map"),
        "index": ("build_index", "save_index", "load_index"),
        "linker": ("generate_candidates",),
        "kb": ("load_kb",),
    }
    calls = {f"{layer}.{fn}": getattr(getattr(bioling, layer), fn)
             for layer, fns in layers.items() for fn in fns}
    calls["vectorizer.fit"] = bioling.vectorizer.NgramVectorizer.fit
    return calls


class BruteForce:
    """Search oracle: the dense query vector against every alias vector,
    ranked by (cosine desc, alias asc), zero scores dropped. Alias vectors
    come from the public `encode`, not from the index's internals."""

    def __init__(self, index):
        vecs = [index.vectorizer.encode(a) for a in index.aliases]
        self.rows = np.repeat(np.arange(len(vecs)), [len(v.indices) for v in vecs])
        self.cols = np.concatenate([v.indices for v in vecs]).astype(np.int64)
        self.vals = np.concatenate([v.weights for v in vecs])
        self.aliases = list(index.aliases)
        self.vocab = index.vectorizer.vocab_size

    def posting_len_mean(self) -> float:
        """Aliases per gram, over grams that occur in some alias."""
        return len(self.cols) / max(1, len(np.unique(self.cols)))

    def top_k(self, query, k: int) -> list[tuple[str, float]]:
        dense = np.zeros(self.vocab)
        dense[query.indices] = query.weights
        scores = np.bincount(self.rows, weights=self.vals * dense[self.cols],
                             minlength=len(self.aliases))
        rows = np.flatnonzero(scores > 0.0)
        if len(rows) > k:   # keep every row tied with the k-th best score
            kth = np.partition(scores[rows], len(rows) - k)[len(rows) - k]
            rows = rows[scores[rows] >= kth]
        ranked = sorted(rows.tolist(), key=lambda r: (-scores[r], self.aliases[r]))[:k]
        return [(self.aliases[r], float(scores[r])) for r in ranked]


def oracle_agrees(got, want) -> bool:
    return len(got) == len(want) and all(
        a == b and abs(s - t) <= 1e-9 for (a, s), (b, t) in zip(got, want))


def _pair_offsets(pairs) -> set[tuple[int, int, int, int]]:
    return {(p.short_form.start, p.short_form.end,
             p.long_form.start, p.long_form.end) for p in pairs}


class Workload:
    name = ""
    unit = ""              # what one timed operation is: "doc" or "mention"
    setup_repeats = 1
    reference: tuple[str, ...] = ()   # refclock routines like its work
    setup_reference = ("python",)     # set-up parses, counts and loops in Python
    # setup() is a generator that yields between set-up steps, so the
    # host-speed reference can be taken around each step

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.index = None
        self.index_path: str | None = None
        self.gold_total = 0
        self.gold_hits = 0
        self.failures: dict[str, int] = {}
        self.oracle_queries: list[str] = []
        # per-operation counts taken from the outputs
        self.tokens: list[int] = []
        self.sentences: list[int] = []
        self.pairs: list[int] = []
        self.candidates: list[int] = []
        self.expanded = 0
        self.oov = 0
        # input properties
        self.chunks_seen: set[str] = set()
        self.chunks = 0
        self.chunk_repeats = 0
        self.item_bytes: list[int] = []

    def fail(self, check: str) -> None:
        self.failures[check] = self.failures.get(check, 0) + 1

    def _observe_input(self, text: str) -> None:
        self.item_bytes.append(len(text.encode("utf-8")))
        if len(self.item_bytes) > CHUNK_SAMPLE:
            return
        for chunk in text.split():
            self.chunks += 1
            if chunk in self.chunks_seen:
                self.chunk_repeats += 1
            else:
                self.chunks_seen.add(chunk)

    def _observe_candidates(self, cs, gold: str | None) -> None:
        self.candidates.append(len(cs.candidates))
        self.expanded += cs.query_text != cs.mention
        self.oov += cs.reason is not None
        if gold is not None:
            self.gold_total += 1
            self.gold_hits += gold in cs.concept_ids()
        if cs.reason is None and len(self.oracle_queries) < ORACLE_SAMPLE:
            self.oracle_queries.append(cs.query_text)


class _TextWorkload(Workload):
    """Shared text-layer steps: tokenize -> segment -> find_abbreviations."""
    unit = "doc"
    reference = ("python",)

    def setup_rules(self, bioling, calls) -> None:
        # the shipped rules are cached per process; a set-up loads them
        bioling.tokenizer.default_biomedical_rules.cache_clear()
        bioling.segmenter.default_segmenter_config.cache_clear()
        self.rules = calls["tokenizer.default_biomedical_rules"]()
        self.seg_cfg = calls["segmenter.default_segmenter_config"]()

    def text_layers(self, calls, text: str):
        doc = calls["tokenizer.tokenize"](text, self.rules)
        doc = calls["segmenter.segment"](doc, self.seg_cfg)
        return doc, calls["abbrev.find_abbreviations"](doc)

    def observe_text(self, bioling, item: gen.Abstract, doc, pairs) -> bool:
        """Counts, definition recall and the text checks; False on a
        failed check."""
        self._observe_input(item.text)
        self.tokens.append(len(doc.tokens))
        self.sentences.append(len(doc.sentences))
        self.pairs.append(len(pairs))
        ok = True
        if bioling.doc.detokenize(doc) != item.text:
            self.fail("round_trip")
            ok = False
        if len(doc.sentences) != item.n_sentences:
            self.fail("sentence_count")
            ok = False
        if not _pair_offsets(pairs) >= set(item.definitions):
            self.fail("abbreviation_definitions")
            ok = False
        return ok


class AbstractsWorkload(_TextWorkload):
    """The headline path: all four stages over repetitive abstracts."""
    name = "abstracts-20k"
    setup_repeats = 3
    reference = ("python", "numpy")
    n_aliases = 20_000

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.kb = gen.make_kb(self.rng, self.n_aliases)
        self.kb_path = os.path.join(tmpdir, "kb.jsonl")
        self.kb.write_jsonl(self.kb_path)

    def setup(self, bioling, calls):
        self.index = None
        self.setup_rules(bioling, calls)
        yield
        kb = calls["kb.load_kb"](self.kb_path)
        yield
        vec = calls["vectorizer.fit"](kb.alias_surfaces(), min_df=MIN_DF)
        yield
        self.index = calls["index.build_index"](kb, vec)

    def batch(self, n: int) -> list[gen.Abstract]:
        return [gen.make_repetitive_abstract(self.rng, self.kb) for _ in range(n)]

    def run(self, calls, item: gen.Abstract):
        doc, pairs = self.text_layers(calls, item.text)
        expansion = calls["abbrev.expansion_map"](pairs)
        link = calls["linker.generate_candidates"]
        cands = [link(self.index, self.index.alias_table, item.text[s:e], K,
                      expansion, s, e)
                 for s, e, _ in item.mentions]
        return doc, pairs, cands

    def observe(self, bioling, item, out) -> bool:
        doc, pairs, cands = out
        for (_, _, cid), cs in zip(item.mentions, cands):
            self._observe_candidates(cs, cid)
        return self.observe_text(bioling, item, doc, pairs)


class DiverseTextWorkload(_TextWorkload):
    """Text layers only, over an open vocabulary: the index does nothing.
    Its gold items are the injected abbreviation definitions."""
    name = "diverse-text"
    setup_repeats = 25     # a set-up takes under a millisecond
    setup_reference = ("python", "io")    # it mostly reads two small files

    def setup(self, bioling, calls):
        self.setup_rules(bioling, calls)
        yield

    def batch(self, n: int) -> list[gen.Abstract]:
        return [gen.make_diverse_abstract(self.rng) for _ in range(n)]

    def run(self, calls, item: gen.Abstract):
        return self.text_layers(calls, item.text)

    def observe(self, bioling, item, out) -> bool:
        doc, pairs = out
        found = _pair_offsets(pairs)
        self.gold_total += len(item.definitions)
        self.gold_hits += sum(d in found for d in item.definitions)
        return self.observe_text(bioling, item, doc, pairs)


class LinkWorkload(Workload):
    """Candidate generation against a large KB, through a saved and
    reloaded index."""
    name = "link-100k"
    unit = "mention"
    reference = ("numpy",)
    n_aliases = 100_000

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.kb = gen.make_kb(self.rng, self.n_aliases)
        self.kb_path = os.path.join(tmpdir, "kb.jsonl")
        self.index_path = os.path.join(tmpdir, "index.blix")
        self.kb.write_jsonl(self.kb_path)

    def setup(self, bioling, calls):
        self.index = None
        kb = calls["kb.load_kb"](self.kb_path)
        yield
        vec = calls["vectorizer.fit"](kb.alias_surfaces(), min_df=MIN_DF)
        yield
        built = calls["index.build_index"](kb, vec)
        yield
        calls["index.save_index"](built, self.index_path)
        del built, kb
        yield
        self.index = calls["index.load_index"](self.index_path)

    def batch(self, n: int) -> list[gen.Mention]:
        return gen.make_mention_mix(self.rng, self.kb, n)

    def run(self, calls, item: gen.Mention):
        return calls["linker.generate_candidates"](
            self.index, self.index.alias_table, item.text, K)

    def observe(self, bioling, item, out) -> bool:
        self._observe_input(item.text)
        self._observe_candidates(out, item.gold)
        return True


WORKLOADS = {w.name: w for w in (AbstractsWorkload, DiverseTextWorkload, LinkWorkload)}
