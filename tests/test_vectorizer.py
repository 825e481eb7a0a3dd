import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import vectorizer
from bioling.index import build_index
from bioling.kb import Concept, KnowledgeBase
from bioling.vectorizer import (
    NgramVectorizer, SparseVector, extract_3grams, zero_vector,
)

from conftest import cjk_kb, dot, fitted_state, reference_csr, reference_encode


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


def reference_csc(vec, texts):
    """`reference_csr` of the texts as scipy transposes it: (`post_ptr`,
    `post_rows`, `post_weights`)."""
    indptr, indices, weights = reference_csr(vec, texts)
    csc = sp.csr_matrix((weights, indices, indptr), shape=(len(texts), vec.vocab_size)).tocsc()
    return csc.indptr, csc.indices, csc.data


def assert_csc_equals_reference(vec, texts):
    """`encode_csc` of the texts gives the reference postings, with the
    dtypes the index keeps; returns them."""
    got = vec.encode_csc(texts)
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    for a, b in zip(got, reference_csc(vec, texts)):
        assert np.array_equal(a, b)
    return got


def assert_matches_reference(aliases, min_df):
    """`fit`, `encode_csc` and `build_index` on `aliases` give the oracles'
    bits."""
    grams, df = reference_fit(aliases, min_df)
    if not grams:
        with pytest.raises(ValueError, match="min_df"):
            NgramVectorizer.fit(aliases, min_df=min_df)
        return
    vec = NgramVectorizer.fit(aliases, min_df=min_df)
    assert vec.grams == grams
    assert np.array_equal(vec.df, df) and vec.n_docs == len(aliases)
    # every surface, also those that share a normalized key with a smaller
    # one and so get no index row
    assert_csc_equals_reference(vec, aliases)
    kb = KnowledgeBase({"C1": Concept("C1", "c", tuple(aliases))})
    index = build_index(kb, vec)
    for got, expected in zip((index.post_ptr, index.post_rows, index.post_weights),
                             reference_csc(vec, index.aliases)):
        assert np.array_equal(got, expected)


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
    assert dot(v, v) == pytest.approx(1.0, abs=1e-12)


def test_zero_vector_dot():
    vec = NgramVectorizer.fit(["abc"], min_df=1)
    assert dot(zero_vector(), vec.encode("abc")) == 0.0


WORDS = st.lists(
    st.text(alphabet="abcdefgh-", min_size=1, max_size=8), min_size=1, max_size=4,
)


@given(WORDS, WORDS)
@settings(max_examples=150, deadline=None)
def test_cosine_matches_reference(words_a, words_b):
    a, b = " ".join(words_a), " ".join(words_b)
    corpus = [a, b, "abc def", "gh"]
    vec = NgramVectorizer.fit(corpus, min_df=1)
    got = dot(vec.encode(a), vec.encode(b))
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
# an all-OOV row (the emoji's grams occur once) in the second chunk, and
# grams ("ba") first seen there
@example(["ab", "ab", "\U0001F600", "ba", "ba"], 2, 2)
# a second chunk of grams never seen before, one below the first chunk's
# (" a ") and one above (" z "): `fit` inserts at both ends of its vocabulary
@example(["m", "m", "a", "z"], 1, 2)
@settings(max_examples=300, deadline=None)
def test_array_pass_matches_reference(aliases, min_df, chunk):
    # small chunks, so most examples span several of them
    with mock.patch.object(vectorizer, "_CHUNK", chunk):
        assert_matches_reference(aliases, min_df)


# case folding that changes length ("İ" -> "i̇", "ß" stays, "ẞ" -> "ß") or
# depends on context ("Σ"), whitespace runs, and letters no corpus holds
_QUERY_CHARS = ["a", "b", "c", "A", "B", "İ", "Σ", "σ", "ς", "ß", "ẞ", " ", "\t",
                "\n", "\xa0", "\u3000", "-", "z", "q", "\U0001F600"]
QUERIES = st.text(alphabet=st.sampled_from(_QUERY_CHARS), max_size=24)


@given(st.lists(st.text(alphabet=st.sampled_from(_QUERY_CHARS[:11]), min_size=1, max_size=12),
                min_size=1, max_size=12),
       st.lists(QUERIES, min_size=1, max_size=8))
@example(["abc"], ["zzz qq", "", "   ", "\U0001F600"])
@example(["İstanbul ΣΑΣ", "ßtraße"], ["İSTANBUL  σας", "STRASSE", "ẞtraße\tİ"])
@settings(max_examples=300, deadline=None)
def test_encode_equals_reference(corpus, queries):
    """`encode` gives the earlier loop's bits: same ids, dtypes and weights,
    and the shared zero vector when no gram is in the vocabulary."""
    try:
        vec = NgramVectorizer.fit(corpus, min_df=1)
    except ValueError:  # no gram at all
        return
    for text in [*queries, *corpus]:
        got, want = vec.encode(text), reference_encode(vec, text)
        assert got.indices.dtype == want.indices.dtype == np.int32
        assert got.weights.dtype == want.weights.dtype == np.float64
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.is_zero == (got is zero_vector())


def test_array_pass_matches_reference_over_chunks(synth_kb):
    aliases = synth_kb.alias_surfaces()
    assert len(aliases) > 2 * vectorizer._CHUNK
    assert_matches_reference(aliases, 10)


def fit_peak_mb(aliases) -> float:
    """The tracemalloc peak of `fit` on `aliases`, in MB."""
    tracemalloc.start()
    try:
        NgramVectorizer.fit(aliases, min_df=10)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# the tracemalloc peak of `fit` on the synthetic KB's 10k aliases (206k
# characters) at the module's `_CHUNK`: 1.1 MB in chunks of 512 strings,
# 2.2 MB in chunks of 1,024 and 7.9 MB in chunks of 4,096 (numpy 2.4,
# Python 3.11); a chunk's temporary arrays take about 90 bytes per character
FIT_PEAK_MB = 2.0


def test_fit_memory(synth_kb):
    assert fit_peak_mb(synth_kb.alias_surfaces()) < FIT_PEAK_MB


# the same peak in chunks of 16 strings, 625 of them: 0.20 MB, as `fit`
# folds each chunk into one running vocabulary; keeping every chunk's grams
# and counts until the end, as `fit` did before, reads 5.9 MB
FIT_MANY_CHUNKS_PEAK_MB = 1.0


def test_fit_memory_does_not_grow_with_the_chunk_count(synth_kb):
    with mock.patch.object(vectorizer, "_CHUNK", 16):
        assert fit_peak_mb(synth_kb.alias_surfaces()) < FIT_MANY_CHUNKS_PEAK_MB


@pytest.mark.parametrize("name, id_type", [
    ("small", "uint8"), ("synthetic", "uint16"), ("cjk", "uint32")])
def test_encode_csc_in_each_gram_id_width(request, name, id_type):
    """`encode_csc` gives the reference postings in each width of the gram
    ids it keeps between its passes, over chunks of 1,000 strings, with an
    all-OOV row in a later chunk and grams first seen after the first."""
    aliases, min_df = {
        "small": lambda: (["tumor"] * 1_500 + ["hsp"] * 1_500, 1),
        "synthetic": lambda: (request.getfixturevalue("synth_kb").alias_surfaces(), 10),
        "cjk": lambda: (cjk_kb().alias_surfaces(), 1)}[name]()
    vec = NgramVectorizer.fit(aliases, min_df=min_df)
    assert np.min_scalar_type(vec.vocab_size - 1) == id_type
    texts = [*aliases[:1_500], "\U0001F600 zzz", *aliases[1_500:]]
    with mock.patch.object(vectorizer, "_CHUNK", 1_000):
        post_ptr, post_rows, _ = assert_csc_equals_reference(vec, texts)
    assert 1_500 not in post_rows
    assert post_rows[post_ptr[:-1][np.diff(post_ptr) > 0]].max() >= 1_000


def test_fit_accepts_a_generator():
    corpus = ["lung cancer", "breast cancer", "tumor"]
    from_generator = NgramVectorizer.fit((a for a in corpus), min_df=1)
    assert fitted_state(from_generator) == fitted_state(NgramVectorizer.fit(corpus, min_df=1))
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
    scaled = SparseVector(idx, w)
    other = vec.encode("breast cancer")
    assert dot(scaled, other) == pytest.approx(dot(base, other), abs=1e-12)


def test_equality_and_determinism():
    corpus = ["lung cancer", "breast cancer", "tumor"]
    a = NgramVectorizer.fit(corpus, min_df=1)
    b = NgramVectorizer.fit(corpus, min_df=1)
    assert fitted_state(a) == fitted_state(b)
    assert fitted_state(a) != fitted_state(NgramVectorizer.fit(corpus[:2], min_df=1))
