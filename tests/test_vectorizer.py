import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import vectorizer
from bioling.index import build_index
from bioling.kb import Concept, KnowledgeBase
from bioling.vectorizer import (
    NgramVectorizer, extract_3grams, zero_vector,
)


# -- reference build -------------------------------------------------------
# The per-string `Counter` fit and the per-alias `encode` loop that the
# array pass replaced, kept as the oracles the differential tests compare
# `fit` and `build_index` against.

def reference_fit(corpus, min_df):
    df_counts = Counter()
    for text in corpus:
        df_counts.update(set(extract_3grams(text)))
    kept = sorted(g for g, df in df_counts.items() if df >= min_df)
    return kept, np.array([df_counts[g] for g in kept], dtype=np.int64)


def reference_csr(vec, texts):
    vectors = [vec.encode(t) for t in texts]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([v.nnz for v in vectors], dtype=np.int64, out=indptr[1:])
    indices = np.concatenate([np.empty(0, np.int32)] + [v.indices for v in vectors])
    weights = np.concatenate([np.empty(0)] + [v.weights for v in vectors])
    return indptr, indices, weights


def assert_matches_reference(aliases, min_df):
    """`fit` and `build_index` on `aliases` give the oracles' bits."""
    grams, df = reference_fit(aliases, min_df)
    if not grams:
        with pytest.raises(ValueError, match="min_df"):
            NgramVectorizer.fit(aliases, min_df=min_df)
        return
    vec = NgramVectorizer.fit(aliases, min_df=min_df)
    assert vec.grams == grams
    assert np.array_equal(vec.df, df) and vec.n_docs == len(aliases)
    kb = KnowledgeBase({"C1": Concept("C1", "c", tuple(aliases))})
    index = build_index(kb, vec)
    want = reference_csr(vec, index.aliases)
    for got, expected in zip((index.indptr, index.indices, index.weights), want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def reference_tfidf_cosine(corpus, a, b, min_df=1):
    """Pure-python TF-IDF cosine, sharing no code with the vectorizer."""
    df = Counter()
    for text in corpus:
        df.update(set(extract_3grams(text)))
    vocab = {g for g, d in df.items() if d >= min_df}
    n = len(corpus)

    def encode(s):
        vec = {}
        for g, tf in extract_3grams(s).items():
            if g in vocab:
                vec[g] = tf * (math.log((1 + n) / (1 + df[g])) + 1)
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return {g: w / norm for g, w in vec.items()} if norm else {}

    va, vb = encode(a), encode(b)
    return sum(w * vb.get(g, 0.0) for g, w in va.items())


def test_extract_3grams_two_char_word():
    assert set(extract_3grams("ab")) == {" ab", "ab "}


def test_extract_3grams_single_char_word():
    # " x " has exactly one window
    assert extract_3grams("x") == Counter({" x "})


def test_extract_3grams_no_cross_word_grams():
    grams = extract_3grams("lung cancer")
    assert len(grams) == 10
    assert "g c" not in grams
    assert " lu" in grams and "er " in grams


def test_extract_3grams_repeated_counts():
    assert extract_3grams("aaaa")["aaa"] == 2


def test_extract_3grams_case_folded():
    assert extract_3grams("ABC") == extract_3grams("abc")


def test_fit_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty training corpus"):
        NgramVectorizer.fit([])


def test_fit_rejects_vocabulary_wipeout():
    with pytest.raises(ValueError, match="min_df"):
        NgramVectorizer.fit(["abc"], min_df=2)


def test_min_df_threshold_is_inclusive():
    # "abc" appears in exactly 2 strings, "xyz" in 1
    corpus = ["abc", "abc", "xyz"]
    vec2 = NgramVectorizer.fit(corpus, min_df=2)
    assert set(vec2.grams) == {" ab", "abc", "bc "}
    vec1 = NgramVectorizer.fit(corpus, min_df=1)
    assert " xy" in vec1.vocabulary


def test_df_counts_distinct_strings_not_occurrences():
    # gram "aaa" occurs twice inside one string but df must count it once
    vec = NgramVectorizer.fit(["aaaa", "zzz"], min_df=1)
    assert vec.df[vec.vocabulary["aaa"]] == 1


def test_idf_value_single_doc():
    # N = df = 1: idf = ln(2/2) + 1 = 1
    vec = NgramVectorizer.fit(["ab"], min_df=1)
    assert np.allclose(vec.idf, 1.0)


def test_idf_formula():
    vec = NgramVectorizer.fit(["ab", "ab", "cd"], min_df=1)
    i = vec.vocabulary[" ab"]
    assert vec.idf[i] == pytest.approx(math.log(4 / 3) + 1)
    j = vec.vocabulary[" cd"]
    assert vec.idf[j] == pytest.approx(math.log(4 / 2) + 1)


def test_encode_unit_norm():
    vec = NgramVectorizer.fit(["lung cancer", "breast cancer", "cancer"], min_df=1)
    v = vec.encode("lung cancer")
    assert np.dot(v.weights, v.weights) == pytest.approx(1.0, abs=1e-12)
    assert list(v.indices) == sorted(v.indices)


def test_encode_oov_gives_zero_vector():
    vec = NgramVectorizer.fit(["lung cancer"], min_df=1)
    v = vec.encode("ΩΩΩΩ")
    assert v.is_zero
    assert vec.encode("").is_zero


def test_partial_oov_uses_known_grams_only():
    vec = NgramVectorizer.fit(["lung cancer"], min_df=1)
    v = vec.encode("lung qqqq")
    assert not v.is_zero
    known = {vec.grams[i] for i in v.indices}
    assert all("q" not in g for g in known)


def test_self_similarity_is_one():
    vec = NgramVectorizer.fit(["heat shock protein", "shock"], min_df=1)
    v = vec.encode("heat shock protein")
    assert v.dot(v) == pytest.approx(1.0, abs=1e-12)


def test_zero_vector_dot():
    vec = NgramVectorizer.fit(["abc"], min_df=1)
    assert zero_vector().dot(vec.encode("abc")) == 0.0


WORDS = st.lists(
    st.text(alphabet="abcdefgh-", min_size=1, max_size=8), min_size=1, max_size=4,
)


@given(WORDS, WORDS)
@settings(max_examples=150, deadline=None)
def test_cosine_matches_reference(words_a, words_b):
    a, b = " ".join(words_a), " ".join(words_b)
    corpus = [a, b, "abc def", "gh"]
    vec = NgramVectorizer.fit(corpus, min_df=1)
    got = vec.encode(a).dot(vec.encode(b))
    want = reference_tfidf_cosine(corpus, a, b)
    assert got == pytest.approx(want, abs=1e-9)


# Unicode whitespace that str.split() breaks on, "İ" (lowercases to two code
# points), "Σ" (lowercases by context), non-BMP letters and lone surrogates
_ALIAS_CHARS = ["a", "b", "A", " ", "\t", "\x85", "\xa0", "\u3000", "\x1c",
                "İ", "Σ", "\U00010400", "\U0001F600", "\ud800", "\udc00"]
ALIASES = st.lists(st.text(alphabet=st.sampled_from(_ALIAS_CHARS), max_size=10),
                   min_size=1, max_size=30)


@given(ALIASES, st.integers(1, 3), st.integers(1, 7))
@example(["", "   ", "a", "a b", "\ud800\udc00 x\ud800", "İİ"], 1, 2)
@settings(max_examples=300, deadline=None)
def test_array_pass_matches_reference(aliases, min_df, chunk):
    # small chunks, so most examples span several of them
    with mock.patch.object(vectorizer, "_CHUNK", chunk):
        assert_matches_reference(aliases, min_df)


def test_array_pass_matches_reference_over_chunks(synth_kb):
    aliases = synth_kb.alias_surfaces()
    assert len(aliases) > 2 * vectorizer._CHUNK
    assert_matches_reference(aliases, 10)


def test_fit_accepts_a_generator():
    corpus = ["lung cancer", "breast cancer", "tumor"]
    from_generator = NgramVectorizer.fit((a for a in corpus), min_df=1)
    assert from_generator == NgramVectorizer.fit(corpus, min_df=1)
    assert from_generator.n_docs == 3


def test_scale_invariance_of_tf():
    # multiplying every term count by a constant leaves the cosine unchanged
    vec = NgramVectorizer.fit(["lung cancer", "breast cancer"], min_df=1)
    base = vec.encode("lung cancer")
    scaled_counts = {g: 7 * tf for g, tf in extract_3grams("lung cancer").items()}
    pairs = sorted(
        (vec.vocabulary[g], tf) for g, tf in scaled_counts.items()
        if g in vec.vocabulary
    )
    idx = np.array([p[0] for p in pairs], dtype=np.int32)
    w = np.array([float(p[1]) for p in pairs]) * vec.idf[idx]
    w /= math.sqrt(float(np.dot(w, w)))
    from bioling.vectorizer import SparseVector
    scaled = SparseVector(idx, w)
    other = vec.encode("breast cancer")
    assert scaled.dot(other) == pytest.approx(base.dot(other), abs=1e-12)


def test_equality_and_determinism():
    corpus = ["lung cancer", "breast cancer", "tumor"]
    a = NgramVectorizer.fit(corpus, min_df=1)
    b = NgramVectorizer.fit(corpus, min_df=1)
    assert a == b
    assert a != NgramVectorizer.fit(corpus[:2], min_df=1)
