import hashlib

import pytest

from bioling.doc import SentenceSpan
from bioling.evals import (
    CITATION_FAMILIES, GoldMention, RecallPoint, make_citation_corpus, recall_at_k,
    segmentation_accuracy,
)
from bioling.kb import normalize_alias
from bioling.linker import generate_candidates
from bioling.segmenter import default_segmenter_config, segment
from bioling.tokenizer import tokenize

from conftest import ADVERSARIAL_FAMILIES, reference_alias_keys

BASE_SENTENCES = [
    "Treatment significantly reduced tumor growth in the cohort.",
    "Expression of the receptor was elevated in affected tissue.",
    "The intervention improved survival across both study arms.",
    "Protein levels declined steadily over the observation period.",
    "Mutations in the pathway were detected in most samples.",
]


def test_gold_mention_validation():
    with pytest.raises(ValueError):
        GoldMention("", "C01")
    with pytest.raises(ValueError):
        GoldMention("tumor", "")


def test_recall_at_k_toy(toy_index):
    gold = [
        GoldMention("lung carcinoma", "C01"),
        GoldMention("mammary carcinoma", "C02"),
        GoldMention("tumor", "C03"),
        GoldMention("completely unrelated xyzzy", "C01"),
    ]
    p1, p5 = recall_at_k(toy_index, gold, ks=[1, 5])
    assert (p1.k, p5.k) == (1, 5)
    assert p1.recall >= 0.75
    assert p5.recall >= p1.recall
    assert p5.max_candidates >= p5.mean_candidates > 0


def test_recall_monotone_in_k(toy_index):
    gold = [
        GoldMention("pulmonary cancer", "C01"),
        GoldMention("cancer", "C02"),
        GoldMention("heat shock proteins", "C04"),
        GoldMention("interleukin 2", "C05"),
    ]
    curve = recall_at_k(toy_index, gold, ks=[1, 2, 4, 8])
    recalls = [p.recall for p in curve]
    assert recalls == sorted(recalls)


def test_recall_with_expansion(toy_index):
    gold = [GoldMention("HSP", "C04")]
    expansion = {"HSP": "heat shock protein"}
    (with_exp,) = recall_at_k(toy_index, gold, [1], expansion=expansion)
    assert with_exp.recall == 1.0


def test_recall_points_equal_one_search_per_k(synth_index, synth_kb):
    """The curve from one search per gold mention equals the one from a
    separate `generate_candidates` call per mention and k."""
    # clipped aliases, so the gold concept is often below rank 1, and one
    # out-of-vocabulary mention
    keys = reference_alias_keys(synth_kb)
    gold = [GoldMention(alias[:-3], min(keys[normalize_alias(alias)]))
            for alias in synth_kb.alias_surfaces()[:6000:150]]
    gold.append(GoldMention("xyzzy qqq", "C0000001"))
    ks = [1, 2, 5, 25, 60]
    expected = []
    for k in ks:
        sets = [generate_candidates(synth_index, synth_index.alias_table, gm.mention, k)
                for gm in gold]
        sizes = [len(cs.candidates) for cs in sets]
        hits = sum(gm.gold_concept_id in cs.concept_ids() for gm, cs in zip(gold, sets))
        expected.append(RecallPoint(k, hits / len(gold), sum(sizes) / len(sizes), max(sizes)))
    curve = recall_at_k(synth_index, gold, ks)
    assert curve == tuple(expected)
    assert len({p.recall for p in curve}) > 1


def test_recall_input_validation(toy_index):
    with pytest.raises(ValueError, match="gold"):
        recall_at_k(toy_index, [], [1])
    with pytest.raises(ValueError, match="increasing"):
        recall_at_k(toy_index, [GoldMention("tumor", "C03")], [5, 1])
    with pytest.raises(ValueError, match="increasing from 1"):
        recall_at_k(toy_index, [GoldMention("tumor", "C03")], [0, 5])


def test_segmentation_accuracy_perfect():
    docs = [segment(tokenize("One sentence. Another one."))]
    acc = segmentation_accuracy(docs, docs)
    assert acc.sentence_acc == 1.0 and acc.abstract_acc == 1.0


def test_segmentation_accuracy_partial():
    text = "First part. Second part."
    gold = segment(tokenize(text))
    assert len(gold.sentences) == 2
    pred = tokenize(text).with_sentences(
        [SentenceSpan(0, len(gold.tokens) - 1)]  # one sentence covering all
    )
    acc = segmentation_accuracy([pred, gold], [gold, gold])
    assert acc.sentence_acc == pytest.approx(0.5)
    assert acc.abstract_acc == pytest.approx(0.5)


def test_segmentation_accuracy_rejects_text_mismatch():
    a = segment(tokenize("Alpha."))
    b = segment(tokenize("Beta."))
    with pytest.raises(ValueError, match="document 0"):
        segmentation_accuracy([a], [b])


def test_segmentation_accuracy_rejects_length_mismatch():
    doc = segment(tokenize("Alpha."))
    with pytest.raises(ValueError):
        segmentation_accuracy([doc], [doc, doc])


def test_citation_corpus_deterministic():
    a = make_citation_corpus(BASE_SENTENCES, seed=5, n=50)
    b = make_citation_corpus(BASE_SENTENCES, seed=5, n=50)
    assert a == b
    c = make_citation_corpus(BASE_SENTENCES, seed=6, n=50)
    assert a != c


def test_citation_corpus_labels_and_families():
    labeled = make_citation_corpus(BASE_SENTENCES, seed=1, n=400)
    families = {fam for _, fam in labeled}
    assert families == set(CITATION_FAMILIES)
    assert ADVERSARIAL_FAMILIES <= families


def test_citation_corpus_capacity_bound():
    capacity = len(BASE_SENTENCES) * len(CITATION_FAMILIES) * 99
    with pytest.raises(ValueError, match="capacity"):
        make_citation_corpus(BASE_SENTENCES, seed=0, n=capacity + 1)
    with pytest.raises(ValueError, match="empty"):
        make_citation_corpus([], seed=0, n=1)


def test_one_word_sentence_gets_every_family():
    labeled = make_citation_corpus(["Mice"], seed=13, n=200)
    assert {fam for _, fam in labeled} == set(CITATION_FAMILIES)
    for sent, fam in labeled:
        assert sent.startswith("Mice") and sent != "Mice"
        if fam == "superscript":
            assert sent.startswith("Mice.")


@pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
def test_sentence_without_words_is_rejected(blank):
    with pytest.raises(ValueError, match="base sentence 1 has no words"):
        make_citation_corpus(["Mice were treated.", blank], seed=13, n=1)


def test_corpus_of_multiword_sentences_is_pinned():
    # sha256 of the corpus as first generated; the one-word fix must not
    # change corpora whose sentences all have two or more words
    corpus = make_citation_corpus(["Mice were treated daily.", "Levels rose."],
                                  seed=13, n=500)
    digest = hashlib.sha256("\n".join(s for s, _ in corpus).encode()).hexdigest()
    assert digest.startswith("8f6f2691d5b81b2c")


def test_citation_corpus_sentences_differ_from_base():
    out = make_citation_corpus(BASE_SENTENCES, seed=2, n=len(BASE_SENTENCES))
    for (sent, _), base in zip(out, BASE_SENTENCES):
        assert sent != base


def test_default_segmenter_keeps_corpus_sentences_intact():
    cfg = default_segmenter_config()
    corpus = make_citation_corpus(BASE_SENTENCES, seed=3, n=200)
    intact = sum(
        1 for sent, _ in corpus if len(segment(tokenize(sent), cfg).sentences) == 1
    )
    assert intact / len(corpus) >= 0.95
