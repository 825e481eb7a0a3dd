"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
suite output doubles as an acceptance report.
"""

import json
import pathlib
import random
import struct
import time

import numpy as np
import pytest

from bioling.abbrev import find_abbreviations
from bioling.bench import run_bench
from bioling.doc import detokenize
from bioling.evals import GoldMention, make_citation_corpus, recall_at_k
from bioling.index import FORMAT_VERSION, IndexFormatError, load_index, save_index
from bioling.kb import normalize_alias
from bioling.linker import generate_candidates
from bioling.segmenter import (
    SegmenterConfig, default_segmenter_config, segment,
)
from bioling.tokenizer import tokenize
from bioling.vectorizer import NgramVectorizer, SparseVector, extract_3grams

from conftest import (
    ADVERSARIAL_FAMILIES, BruteForceOracle, dot, index_row, longest_word_mentions, synth_alias,
)

DATA = pathlib.Path(__file__).parent / "data"


def report(capsys, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    with capsys.disabled():
        print(line, flush=True)


# -- fuzzing helpers ----------------------------------------------------

_SCRIPT_POOLS = (
    "abcdefghijklmnopqrstuvwxyz",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    "αβγδεζηθλμπστφψω",
    "кафедрал",
    "漢字テスト한글",
    ".,;:!?()[]{}<>/%-=±\"'“”‘’«»",
    " \t\n  ",
    "\U0001F9EAµ→≤",
)
_CITATIONS = ("[1,2]", "(Smith et al., 2002)", "[12;13]", "Fig. 3", "e.g.,")


def fuzz_string(rng):
    parts = []
    for _ in range(rng.randrange(0, 12)):
        roll = rng.random()
        if roll < 0.15:
            parts.append(rng.choice(_CITATIONS))
        else:
            pool = rng.choice(_SCRIPT_POOLS)
            parts.append("".join(
                rng.choice(pool) for _ in range(rng.randrange(1, 10))
            ))
        if rng.random() < 0.7:
            parts.append(rng.choice((" ", "  ", "\t", "\n", "")))
    return "".join(parts)


def perturb(rng, s):
    if len(s) < 3 or rng.random() < 0.4:
        return s
    i = rng.randrange(1, len(s) - 1)
    roll = rng.random()
    if roll < 0.4:
        return s[:i] + s[i] + s[i:]  # double a character
    if roll < 0.7:
        return s[:i] + s[i + 1:]  # drop a character
    return s[:i] + "x" + s[i + 1:]  # substitute


@pytest.fixture(scope="module")
def synth_gold(synth_kb):
    rng = random.Random(1234)
    surfaces = synth_kb.alias_surfaces()
    gold = []
    while len(gold) < 300:
        alias = rng.choice(surfaces)
        cids = synth_kb.alias_table[normalize_alias(alias)]
        gold.append(GoldMention(perturb(rng, alias), sorted(cids)[0]))
    return gold


# -- criteria -----------------------------------------------------------

def test_tokenizer_round_trip_fuzz(capsys):
    rng = random.Random(0xF0221)
    n = 10_000
    t0 = time.perf_counter()
    failures = sum(
        1 for _ in range(n)
        if detokenize(tokenize(s := fuzz_string(rng))) != s
    )
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    report(capsys, "tokenizer round-trip", ok,
           f"{n - failures}/{n} lossless in {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 10.0


def test_candidate_oracle_equivalence(capsys, synth_index):
    oracle = BruteForceOracle(synth_index)
    rng = random.Random(0x0AC1E)
    surfaces = synth_index.aliases
    queries = []
    for _ in range(1000):
        roll = rng.random()
        if roll < 0.4:
            queries.append(rng.choice(surfaces))
        elif roll < 0.8:
            queries.append(perturb(rng, rng.choice(surfaces)))
        elif roll < 0.95:
            queries.append(synth_alias(rng))
        else:
            queries.append("entirely unrelated QQ##")
    t0 = time.perf_counter()
    mismatches = 0
    worst = 0.0
    for text in queries:
        q = synth_index.vectorizer.encode(text)
        for k in (1, 5, 25, 100):
            got = synth_index.nearest_aliases(q, k)
            want = oracle.top_k(q, k)
            if [a for a, _ in got] != [a for a, _ in want]:
                mismatches += 1
                continue
            for (_, s1), (_, s2) in zip(got, want):
                worst = max(worst, abs(s1 - s2))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst <= 1e-9 and elapsed < 60.0
    report(capsys, "candidate-generation oracle equivalence", ok,
           f"1000 queries x k in {{1,5,25,100}}, max |dcos|={worst:.1e}, "
           f"{elapsed:.1f}s")
    assert mismatches == 0
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_min_df_boundary(capsys):
    fillers = [f"filler{i:02d}" for i in range(30)]
    checked = []
    for min_df in (1, 2, 10):
        at = NgramVectorizer.fit(
            ["zebra"] * min_df + fillers, min_df=min_df
        )
        below = NgramVectorizer.fit(
            ["zebra"] * (min_df - 1) + fillers, min_df=min_df
        )
        included = " ze" in at.vocabulary
        excluded = " ze" not in below.vocabulary
        checked.append(included and excluded)
    ok = all(checked)
    report(capsys, "min_df boundary", ok,
           "df=min_df kept, df=min_df-1 dropped at min_df in {1,2,10}")
    assert ok


def test_shared_alias_semantics(capsys, toy_index):
    cs = generate_candidates(toy_index, toy_index.alias_table, "cancer", 1)
    sims = [c.similarity for c in cs.candidates]
    ok = len(cs.candidates) > 1 and all(
        s == pytest.approx(1.0, abs=1e-12) for s in sims
    )
    report(capsys, "shared-alias semantics", ok,
           f"k=1 produced {len(cs.candidates)} candidates, all at 1.0")
    assert ok


def test_recall_monotonic(capsys, synth_index, synth_gold):
    ks = [1, 5, 25, 100]
    exact = recall_at_k(synth_index, synth_gold, ks)
    exact_recalls = [p.recall for p in exact]
    monotone = exact_recalls == sorted(exact_recalls)
    report(capsys, "recall@K monotonicity", monotone, f"exact {exact_recalls}")
    assert monotone


def test_abbreviation_fixture(capsys):
    with open(DATA / "abbrev_cases.jsonl") as fp:
        cases = [json.loads(line) for line in fp if line.strip()]
    agree = 0
    for case in cases:
        doc = segment(tokenize(case["text"]))
        got = [(p.short_form.surface, p.long_form.surface)
               for p in find_abbreviations(doc)]
        if got == [tuple(p) for p in case["pairs"]]:
            agree += 1
    ok = len(cases) == 30 and agree == len(cases)
    report(capsys, "abbreviation detection fixture", ok,
           f"{agree}/{len(cases)} cases agree")
    assert ok


BASE_SENTENCES = [
    "Treatment significantly reduced tumor growth in the cohort.",
    "Expression of the receptor was elevated in affected tissue.",
    "The intervention improved survival across both study arms.",
    "Protein levels declined steadily over the observation period.",
    "Mutations in the pathway were detected in most samples.",
    "The dose response curve plateaued after the fourth week.",
    "Participants reported fewer adverse events under treatment.",
    "Cell viability decreased sharply at higher concentrations.",
    "The biomarker correlated strongly with disease progression.",
    "Imaging revealed reduced lesion volume after therapy.",
]


def test_citation_segmentation(capsys):
    labeled = make_citation_corpus(BASE_SENTENCES, seed=20_26, n=500)
    full_cfg = default_segmenter_config()
    naive_cfg = SegmenterConfig()

    def intact_rate(sentences, cfg):
        good = sum(
            1 for s in sentences if len(segment(tokenize(s), cfg).sentences) == 1
        )
        return good / len(sentences)

    all_sents = [s for s, _ in labeled]
    adversarial = [s for s, fam in labeled if fam in ADVERSARIAL_FAMILIES]
    full_rate = intact_rate(all_sents, full_cfg)
    naive_adv = intact_rate(adversarial, naive_cfg)
    full_adv = intact_rate(adversarial, full_cfg)
    ok = full_rate >= 0.95 and adversarial and naive_adv < full_adv
    report(capsys, "citation segmentation", ok,
           f"intact {full_rate:.3f} (n=500); adversarial subset "
           f"{full_adv:.3f} full vs {naive_adv:.3f} naive")
    assert full_rate >= 0.95
    assert adversarial
    assert naive_adv < full_adv


def make_abstract(rng):
    sentences = []
    size = 0
    while size < 1400:
        sent = rng.choice(BASE_SENTENCES)
        roll = rng.random()
        if roll < 0.25:
            sent = sent[:-1] + f" [{rng.randrange(1, 60)}]."
        elif roll < 0.4:
            author = rng.choice(("Smith", "Chen", "Novak", "Patel"))
            sent = sent[:-1] + f" ({author} et al., {rng.randrange(1990, 2024)})."
        elif roll < 0.5:
            sent = ("The heat shock protein (HSP) assay was repeated. " + sent)
        sentences.append(sent)
        size += len(sent) + 1
    return " ".join(sentences)


def test_throughput(capsys, synth_index):
    rng = random.Random(0xBE0C)
    corpus = [longest_word_mentions(make_abstract(rng)) for _ in range(1000)]
    mean_len = sum(len(text) for text, _ in corpus) / len(corpus)
    report_obj = run_bench(corpus, reps=3, warmup=1, index=synth_index)
    med = report_obj.ms_per_abstract_median
    ok = med < 50.0
    report(capsys, "throughput sanity", ok,
           f"median {med:.2f} ms/abstract over 1000 x ~{mean_len:.0f}B "
           f"abstracts, {report_obj.n_mentions} mentions linked")
    assert ok
    assert report_obj.n_mentions == 5 * len(corpus)


def test_persistence_fixed_point(capsys, synth_index, tmp_path):
    path = str(tmp_path / "synth.blix")
    save_index(synth_index, path)
    loaded = load_index(path)
    rng = random.Random(0x51AB)
    mismatches = 0
    for _ in range(100):
        text = perturb(rng, rng.choice(synth_index.aliases))
        q = synth_index.vectorizer.encode(text)
        if synth_index.nearest_aliases(q, 25) != loaded.nearest_aliases(q, 25):
            mismatches += 1

    bad = tmp_path / "future.blix"
    data = bytearray(pathlib.Path(path).read_bytes())
    data[4:6] = struct.pack("<H", FORMAT_VERSION + 1)
    bad.write_bytes(bytes(data))
    try:
        load_index(str(bad))
        version_rejected = False
    except IndexFormatError:
        version_rejected = True

    ok = mismatches == 0 and version_rejected
    report(capsys, "index persistence", ok,
           f"100/{100 - mismatches} fuzzed queries identical after reload; "
           f"version mismatch rejected={version_rejected}")
    assert mismatches == 0
    assert version_rejected


def test_tf_scale_invariance(capsys, synth_index):
    vec = synth_index.vectorizer
    rng = random.Random(0x5CA1E)
    sample = rng.sample(synth_index.aliases, 60)
    others = [index_row(synth_index, rng.randrange(len(synth_index)))
              for _ in range(50)]
    worst = 0.0
    for text in sample:
        base = vec.encode(text)
        pairs = sorted(
            (vec.vocabulary[g], 7 * tf)
            for g, tf in extract_3grams(text).items() if g in vec.vocabulary
        )
        if not pairs:
            continue
        idx = np.array([p[0] for p in pairs], dtype=np.int32)
        w = np.array([float(p[1]) for p in pairs]) * vec.idf[idx]
        w /= np.sqrt(np.dot(w, w))
        scaled = SparseVector(idx, w)
        for other in others:
            worst = max(worst, abs(dot(base, other) - dot(scaled, other)))
    ok = worst <= 1e-12
    report(capsys, "TF scale invariance", ok,
           f"max cosine shift {worst:.2e} when TF x7")
    assert ok
