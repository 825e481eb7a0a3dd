import os
import pathlib
import random
import struct
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import index as index_module, vectorizer
from bioling.index import (
    FORMAT_VERSION, IndexFormatError, MAGIC, build_index, load_index, save_index,
)
from bioling.kb import Concept, KnowledgeBase, normalize_alias
from bioling.vectorizer import NgramVectorizer, SparseVector, zero_vector

from conftest import (
    BLIX_CORRUPTIONS, BruteForceOracle, blix_array_starts, cjk_kb, fitted_state, index_row,
    make_synthetic_kb, reference_alias_keys, reference_build_index, sealed, stand_in, synth_alias,
    write_corrupt_blix,
)

DATA = pathlib.Path(__file__).parent / "data"
# written from the `toy_kb` fixture (min_df=1); pins the format across
# implementations of the writer
GOLDEN_BLIX = DATA / "toy.blix"


def query_pool(n, seed):
    rng = random.Random(seed)
    return [synth_alias(rng) for _ in range(n)]


def test_build_indexes_every_distinct_alias(toy_kb, toy_index):
    # one row per alias key: its smallest surface, with the key's concepts
    keys = reference_alias_keys(toy_kb)
    assert len(toy_index) == len(keys)
    assert toy_index.aliases == sorted(toy_index.alias_table) == list(toy_index.alias_table)
    for alias, ids in toy_index.alias_table.items():
        key = normalize_alias(alias)
        assert alias == min(a for a in toy_kb.alias_surfaces() if normalize_alias(a) == key)
        assert ids == tuple(sorted(keys[key]))
    assert "Cancer" in toy_index.alias_table and "cancer" not in toy_index.alias_table


def test_index_shares_the_kb_alias_table(toy_kb, tmp_path):
    # the index keeps the KB's row table itself, and a saved index loads it back
    vec = NgramVectorizer.fit(toy_kb.alias_surfaces(), min_df=1)
    index = build_index(toy_kb, vec)
    assert index.alias_table is toy_kb.alias_table
    assert index.aliases == list(toy_kb.alias_table)
    path = str(tmp_path / "shared.blix")
    save_index(index, path)
    assert load_index(path).alias_table == toy_kb.alias_table


def test_exact_match_scores_one(toy_index):
    top = toy_index.nearest_aliases(toy_index.vectorizer.encode("cancer"), 1)
    # "Cancer" and "cancer" share a key; its row is the smaller surface
    assert top[0][0] == "Cancer"
    assert top[0][1] == pytest.approx(1.0)


def test_zero_query_returns_nothing(toy_index):
    oov = toy_index.vectorizer.encode("xyzzy qqq")
    assert oov.is_zero
    for q in (zero_vector(), oov):
        for k in (1, 5, len(toy_index), len(toy_index) + 2):
            assert toy_index.nearest_aliases(q, k) == []


def test_k_validation(toy_index):
    with pytest.raises(ValueError):
        toy_index.nearest_aliases(zero_vector(), 0)


def test_zero_similarity_rows_excluded(toy_index):
    q = toy_index.vectorizer.encode("HSP")
    hits = toy_index.nearest_aliases(q, len(toy_index))
    returned = {a for a, _ in hits}
    assert "HSP" in returned
    assert all(s > 0.0 for _, s in hits)
    assert len(hits) < len(toy_index)  # unrelated aliases dropped


def test_tie_break_lexicographic():
    kb = make_synthetic_kb(50, 20, seed=7)
    vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=1)
    idx = build_index(kb, vec)
    q = vec.encode(kb.alias_surfaces()[0])
    hits = idx.nearest_aliases(q, 50)
    for (a1, s1), (a2, s2) in zip(hits, hits[1:]):
        assert s1 > s2 or (s1 == s2 and a1 < a2)


def test_exact_backend_matches_brute_force_small():
    kb = make_synthetic_kb(400, 150, seed=9)
    vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=2)
    idx = build_index(kb, vec)
    oracle = BruteForceOracle(idx)
    for text in query_pool(50, seed=10):
        q = vec.encode(text)
        for k in (1, 5, 25):
            got = idx.nearest_aliases(q, k)
            want = oracle.top_k(q, k)
            assert [a for a, _ in got] == [a for a, _ in want]
            for (_, s1), (_, s2) in zip(got, want):
                assert s1 == pytest.approx(s2, abs=1e-9)


# the six word orders of one phrase: distinct alias keys whose 3-gram
# multisets are identical (grams never span words), so they tie at every
# query's score
TIED_VARIANTS = ["tumor growth factor", "tumor factor growth", "growth tumor factor",
                 "growth factor tumor", "factor tumor growth", "factor growth tumor"]


@pytest.fixture(scope="module")
def tie_index():
    """(vectorizer, index) over the tied variants and a few other aliases."""
    aliases = ["tumor growth factors", *TIED_VARIANTS, "heart failure", "renal failure",
               "growth factor", "kidney stone", "lung tumor"]
    kb = KnowledgeBase({f"T{i}": Concept(f"T{i}", a, (a,)) for i, a in enumerate(aliases)})
    vec = NgramVectorizer.fit(aliases, min_df=1)
    return vec, build_index(kb, vec)


def assert_equals_oracle(got, want):
    assert [a for a, _ in got] == [a for a, _ in want]
    for (_, s1), (_, s2) in zip(got, want):
        assert s1 == pytest.approx(s2, abs=1e-9)


def test_top_k_inside_tied_block(tie_index):
    vec, idx = tie_index
    oracle = BruteForceOracle(idx)
    q = vec.encode("tumor growth factors")
    ranked = oracle.top_k(q, len(idx))
    # "tumor growth factors" first, then the six tied variants, then the rest
    assert {a for a, _ in ranked[1:7]} == set(TIED_VARIANTS)
    assert ranked[0][1] > ranked[1][1] == ranked[6][1] > ranked[7][1]
    for k in (2, 3, 4, 6):
        got = idx.nearest_aliases(q, k)
        assert_equals_oracle(got, oracle.top_k(q, k))
        assert [a for a, _ in got[1:]] == sorted(TIED_VARIANTS)[:k - 1]


def test_top_k_fewer_positive_than_k(tie_index):
    vec, idx = tie_index
    oracle = BruteForceOracle(idx)
    q = vec.encode("renal failure")
    k = len(idx) - 1
    got = idx.nearest_aliases(q, k)
    assert 0 < len(got) < k
    assert all(s > 0.0 for _, s in got)
    assert_equals_oracle(got, oracle.top_k(q, k))


def test_top_k_k_at_least_index_size(tie_index):
    vec, idx = tie_index
    oracle = BruteForceOracle(idx)
    for text in ["tumor growth", "growth failure", "lung"]:
        q = vec.encode(text)
        for k in (len(idx), len(idx) + 7):
            got = idx.nearest_aliases(q, k)
            assert_equals_oracle(got, oracle.top_k(q, k))


def fancy_index_scores(index, query):
    """Reference for the scores of `_scores_and_bound`: one gather, add and
    scatter per posting list. Rows are unique within a list, so it adds the
    same floats in the same order and must agree to the bit."""
    scores = np.zeros(len(index), dtype=np.float64)
    for gi, w in zip(query.indices, query.weights):
        lo, hi = index.post_ptr[gi], index.post_ptr[gi + 1]
        scores[index.post_rows[lo:hi]] += float(w) * index.post_weights[lo:hi]
    return scores


def reference_kth_score_bound(index, query, scores, k):
    """Reference for the bound of `_scores_and_bound`, by a second pass over
    the query's posting lists: the k-th best score among the rows of the
    first of the shortest lists holding at least k rows, else 0.0."""
    lengths = [int(index.post_ptr[g + 1] - index.post_ptr[g]) for g in query.indices]
    long_enough = [(n, i) for i, n in enumerate(lengths) if n >= k]
    if not long_enough:
        return 0.0
    g = query.indices[min(long_enough)[1]]
    vals = sorted(scores[index.post_rows[index.post_ptr[g]:index.post_ptr[g + 1]]])
    return float(vals[-k])


def test_exact_scores_equal_fancy_index_loop(synth_index):
    texts = query_pool(200, seed=11) + synth_index.aliases[::100] + ["acute", "oma", "xyzzy"]
    for text in texts:
        q = synth_index.vectorizer.encode(text)
        want = fancy_index_scores(synth_index, q)
        for k in (1, 25, 400):
            scores, bound = synth_index._scores_and_bound(q, k)
            assert np.array_equal(scores, want)
            assert bound == reference_kth_score_bound(synth_index, q, want, k)


def test_bound_keeps_rows_tied_at_it(tie_index):
    vec, idx = tie_index
    oracle = BruteForceOracle(idx)
    # the six variants tie at the top score, so for k up to 6 the bound is
    # the score they tie at, and every one of them must get past it
    q = vec.encode("tumor growth factor")
    for k in range(1, 7):
        got = idx.nearest_aliases(q, k)
        assert idx._scores_and_bound(q, k)[1] == got[-1][1] == got[0][1]
        assert_equals_oracle(got, oracle.top_k(q, k))
        assert [a for a, _ in got] == sorted(TIED_VARIANTS)[:k]


def test_bound_when_no_posting_list_holds_k_rows(synth_index):
    oracle = BruteForceOracle(synth_index)
    lengths = np.diff(synth_index.post_ptr)
    checked = 0
    for text in query_pool(100, seed=12):
        q = synth_index.vectorizer.encode(text)
        k = int(lengths[q.indices].max()) + 1
        scores, bound = synth_index._scores_and_bound(q, k)
        if np.count_nonzero(scores) <= k:
            continue
        # every list is shorter than k, but more than k rows score
        assert bound == 0.0
        assert_equals_oracle(synth_index.nearest_aliases(q, k), oracle.top_k(q, k))
        checked += 1
    assert checked >= 50


def test_bound_with_k_at_least_the_positive_rows(tie_index):
    vec, idx = tie_index
    oracle = BruteForceOracle(idx)
    for text in ["renal failure", "lung", "growth factor"]:
        q = vec.encode(text)
        positive = np.count_nonzero(idx._scores_and_bound(q, 1)[0])
        for k in range(max(1, positive - 1), positive + 2):
            got = idx.nearest_aliases(q, k)
            assert len(got) == min(k, positive)
            assert_equals_oracle(got, oracle.top_k(q, k))


def hand_written_blix(path, grams, df, n_docs, aliases, postings):
    """A version 4 `.blix` file written field by field, one concept id per
    alias. `postings` lists each gram's (row, weight) pairs."""
    def array(values, dtype):
        arr = np.asarray(values, dtype=dtype)
        return struct.pack("<Q", len(arr)) + arr.tobytes()

    codes = [ord(a) << 42 | ord(b) << 21 | ord(c) for a, b, c in grams]
    text_offsets = np.cumsum([0, *map(len, aliases)])
    ids = [f"C{i}" for i in range(len(aliases))]
    body = struct.pack("<4sHII", MAGIC, FORMAT_VERSION, n_docs, 1) + b"".join([
        array(codes, "<i8"), array(df, "<i8"),
        array(text_offsets, "<i8"), array(list("".join(aliases).encode()), "u1"),
        array(range(len(ids) + 1), "<i8"),
        array(np.cumsum([0, *map(len, ids)]), "<i8"), array(list("".join(ids).encode()), "u1"),
        array(np.cumsum([0, *map(len, postings)]), "<i8"),
        array([r for plist in postings for r, _ in plist], "<i4"),
        array([w for plist in postings for _, w in plist], "<f8"),
    ])
    path.write_bytes(sealed(body))


def test_zero_weights_fall_back_to_positive_scores(tmp_path):
    # gram " ab" has a zero weight in every row, so its list holds k rows
    # whose k-th best score can be 0: the bound then selects rows above 0
    path = tmp_path / "zero.blix"
    hand_written_blix(path, grams=[" ab", "ab "], df=[4, 1], n_docs=4,
                      aliases=["a", "b", "c", "d"],
                      postings=[[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)], [(2, 1.0)]])
    idx = load_index(str(path))
    q = SparseVector(np.array([0, 1], dtype=np.int32), np.array([0.6, 0.8]))
    assert idx._scores_and_bound(q, 1)[1] == 0.8
    for k in (2, 3, 4):
        assert idx._scores_and_bound(q, k)[1] == 0.0
    for k in (1, 2, 3, 4, 5):
        assert idx.nearest_aliases(q, k) == [("c", 0.8)]
    only_zero = SparseVector(np.array([0], dtype=np.int32), np.array([1.0]))
    assert idx.nearest_aliases(only_zero, 2) == []


SMALL_ALPHABET_TEXT = st.text("abcd -", min_size=1, max_size=10).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SMALL_ALPHABET_TEXT, min_size=1, max_size=3), min_size=1, max_size=12),
       st.data())
def test_nearest_aliases_equal_brute_force(concept_aliases, data):
    """Small alphabets make long posting lists and many tied scores, so the
    bound meets every case: lists longer and shorter than k, ties at it."""
    kb = KnowledgeBase({f"C{i}": Concept(f"C{i}", aliases[0], tuple(aliases))
                        for i, aliases in enumerate(concept_aliases)})
    vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=1)
    idx = build_index(kb, vec)
    oracle = BruteForceOracle(idx)
    texts = data.draw(st.lists(SMALL_ALPHABET_TEXT | st.sampled_from(idx.aliases),
                               min_size=1, max_size=5))
    for text in texts:
        q = vec.encode(text)
        k = data.draw(st.integers(1, len(idx) + 2))
        assert_equals_oracle(idx.nearest_aliases(q, k), oracle.top_k(q, k))


def test_save_load_round_trip_exact(toy_index, tmp_path):
    path = str(tmp_path / "toy.blix")
    save_index(toy_index, path)
    loaded = load_index(path)
    assert loaded.aliases == toy_index.aliases
    assert fitted_state(loaded.vectorizer) == fitted_state(toy_index.vectorizer)
    assert loaded.alias_table == toy_index.alias_table
    q = loaded.vectorizer.encode("pulmonary cancer")
    assert loaded.nearest_aliases(q, 5) == toy_index.nearest_aliases(q, 5)


def test_double_round_trip_is_fixed_point(toy_index, tmp_path):
    p1, p2 = str(tmp_path / "a.blix"), str(tmp_path / "b.blix")
    save_index(toy_index, p1)
    save_index(load_index(p1), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.blix"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(str(path))


def test_load_rejects_version_mismatch(toy_index, tmp_path):
    path = tmp_path / "future.blix"
    good = tmp_path / "good.blix"
    save_index(toy_index, str(good))
    data = bytearray(good.read_bytes())
    data[4:6] = struct.pack("<H", FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(str(path))


def test_load_rejects_truncated_file(toy_index, tmp_path):
    good = tmp_path / "good.blix"
    save_index(toy_index, str(good))
    trunc = tmp_path / "trunc.blix"
    trunc.write_bytes(good.read_bytes()[:-10])
    with pytest.raises(IndexFormatError):
        load_index(str(trunc))


@pytest.mark.parametrize("case", sorted(BLIX_CORRUPTIONS))
def test_load_rejects_corrupt_file(case, toy_index, tmp_path):
    path = str(tmp_path / "bad.blix")
    match = write_corrupt_blix(toy_index, case, path)
    with pytest.raises(IndexFormatError, match=match):
        load_index(path)


@pytest.mark.parametrize("count", [2**23, 2**63, 2**64 - 1])
def test_oversized_count_is_rejected_before_allocation(count, tmp_path):
    """A gram-code count past the end of the file, with a valid CRC, is an
    early end of file, found before a buffer of that size is allocated;
    with the CRC left as it was, the damage is reported first."""
    raw = GOLDEN_BLIX.read_bytes()
    body = bytearray(raw[:-4])
    struct.pack_into("<Q", body, blix_array_starts(raw)["codes"] - 8, count)
    resealed, damaged = tmp_path / "resealed.blix", tmp_path / "damaged.blix"
    resealed.write_bytes(sealed(bytes(body)))
    damaged.write_bytes(bytes(body) + raw[-4:])
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="unexpected end of file"):
            load_index(str(resealed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw) + (1 << 16)
    with pytest.raises(IndexFormatError, match="CRC-32 mismatch"):
        load_index(str(damaged))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case, match", [
    ("valid", None), ("CRC mismatch", "CRC-32 mismatch"),
    ("trailing bytes", "trailing"), ("indptr start", "posting offsets must start at 0")])
def test_load_from_a_fifo(case, match, toy_index, tmp_path):
    """An index read through a named pipe, which cannot seek, loads as the
    same file does, and a damaged one is rejected with the same message."""
    path = str(tmp_path / "toy.blix")
    if case == "valid":
        save_index(toy_index, path)
    else:
        write_corrupt_blix(toy_index, case, path)
    fifo = tmp_path / "toy.fifo"
    os.mkfifo(fifo)
    # a daemon, so a reader that never opens the pipe cannot hang the run
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(pathlib.Path(path).read_bytes(),), daemon=True)
    writer.start()
    try:
        if match is None:
            loaded = load_index(str(fifo))
        else:
            with pytest.raises(IndexFormatError, match=match):
                load_index(str(fifo))
            with pytest.raises(IndexFormatError, match=match):
                load_index(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    if match is None:
        resaved = str(tmp_path / "resaved.blix")
        save_index(loaded, resaved)
        assert pathlib.Path(resaved).read_bytes() == pathlib.Path(path).read_bytes()


# the toy KB in older formats: version 1 (rows in KB order, then a backend
# byte), version 2 (a row per surface, then a keyed alias table) and
# version 3 (length-prefixed strings and the CSR rows)
@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_version_file_asks_for_rebuild(version):
    with pytest.raises(IndexFormatError, match=(
            rf"unsupported format version {version} \(expected 4\); "
            r"rebuild the index with `bioling index build`")):
        load_index(str(DATA / f"toy-v{version}.blix"))


def test_golden_fixture_round_trips(toy_index, tmp_path):
    golden = GOLDEN_BLIX.read_bytes()
    loaded = load_index(str(GOLDEN_BLIX))
    resaved, fresh = tmp_path / "resaved.blix", tmp_path / "fresh.blix"
    save_index(loaded, str(resaved))
    save_index(toy_index, str(fresh))
    assert resaved.read_bytes() == golden
    assert fresh.read_bytes() == golden
    for text in ["cancer", "lung carcinoma", "interleukin", "HSP", "neoplasm"]:
        q = toy_index.vectorizer.encode(text)
        assert loaded.nearest_aliases(q, 5) == toy_index.nearest_aliases(q, 5)


@pytest.fixture(scope="module")
def blix_files(toy_index, tmp_path_factory):
    """(directory, {name: bytes of a valid .blix file}) for the toy KB and a
    small synthetic one."""
    kb = make_synthetic_kb(60, 25, seed=3)
    vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=2)
    directory = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, index in [("toy", toy_index), ("synthetic", build_index(kb, vec))]:
        path = directory / f"{name}.blix"
        save_index(index, str(path))
        files[name] = path.read_bytes()
    return directory, files


# flipping this bit makes the first df negative; a reader that let it
# through would give a NaN idf, with only a RuntimeWarning from `np.log`
TOY_DF_SIGN_BIT = 8 * (blix_array_starts(GOLDEN_BLIX.read_bytes())["df"] + 7) + 7


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["toy", "synthetic"]), truncate=st.booleans(),
       position=st.integers(0, 2**24))
@example(name="toy", truncate=False, position=TOY_DF_SIGN_BIT)
def test_damaged_file_is_rejected_or_searchable(blix_files, name, truncate, position):
    """A valid file cut to `position` bytes, or with bit `position` flipped
    (both modulo its size), is rejected with `IndexFormatError` and no other
    exception or warning: the CRC-32 trailer catches every such damage."""
    directory, files = blix_files
    raw = files[name]
    if truncate:
        damaged = raw[:position % len(raw)]
    else:
        bit = position % (8 * len(raw))
        damaged = bytearray(raw)
        damaged[bit // 8] ^= 1 << (bit % 8)
    path = directory / "damaged.blix"
    path.write_bytes(bytes(damaged))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IndexFormatError):
            load_index(str(path))


ALIAS_TEXT = st.text(
    st.characters(codec="utf-8", categories=("L", "N", "P", "Zs")), min_size=1, max_size=12,
).filter(str.strip)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(ALIAS_TEXT, min_size=1, max_size=4), min_size=1, max_size=8),
       st.integers(1, 3))
def test_save_of_load_is_byte_identical(concept_aliases, min_df):
    kb = KnowledgeBase({f"C{i}": Concept(f"C{i}", aliases[0], tuple(aliases))
                        for i, aliases in enumerate(concept_aliases)})
    try:
        vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=min_df)
    except ValueError:  # no gram reaches min_df
        return
    index = build_index(kb, vec)
    # one row per alias key, its smallest surface
    smallest: dict[str, str] = {}
    for alias in kb.alias_surfaces():
        key = normalize_alias(alias)
        smallest[key] = min(smallest.get(key, alias), alias)
    assert index.aliases == sorted(smallest.values())
    assert len(index) == len(reference_alias_keys(kb))
    with tempfile.TemporaryDirectory() as directory:
        first, second = os.path.join(directory, "a.blix"), os.path.join(directory, "b.blix")
        save_index(index, first)
        save_index(load_index(first), second)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()


def test_rows_equal_encoded_aliases(toy_kb, tmp_path):
    # fitted on two aliases only, so most others have zero-length rows
    vec = NgramVectorizer.fit(["cancer", "tumor"], min_df=1)
    built = build_index(toy_kb, vec)
    path = str(tmp_path / "rows.blix")
    save_index(built, path)
    for idx in (built, load_index(path)):
        assert any(index_row(idx, i).is_zero for i in range(len(idx)))
        for i, alias in enumerate(idx.aliases):
            want, got = vec.encode(alias), index_row(idx, i)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("fixture", ["toy_index", "synth_index"])
def test_index_rows_are_encode_bits(request, fixture):
    index = request.getfixturevalue(fixture)
    for i, alias in enumerate(index.aliases):
        want, got = index.vectorizer.encode(alias), index_row(index, i)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.weights, want.weights)


# shared keys within and across concepts, in at most 256 grams at min_df=1
SMALL_KB = KnowledgeBase({
    "S1": Concept("S1", "Heat shock protein", ("Heat shock protein", "HSP", "heat  shock protein")),
    "S2": Concept("S2", "hsp", ("hsp", "Hsp", "HSP")),
    "S3": Concept("S3", "Tumour", ("Tumour", "tumor", "TUMOR", "Tumor")),
})


@pytest.mark.parametrize("name, key_dtype", [
    ("toy", "uint8"), ("synthetic", "uint16"), ("small", "uint8"), ("cjk", "uint32")])
def test_build_index_equals_reference(request, name, key_dtype):
    """The one-pass key table and the narrow transpose sort give the earlier
    rules' rows and postings, values and dtypes, in each width of gram id."""
    kb, min_df = {"toy": lambda: (request.getfixturevalue("toy_kb"), 1),
                  "synthetic": lambda: (request.getfixturevalue("synth_kb"), 10),
                  "small": lambda: (SMALL_KB, 1),
                  "cjk": lambda: (cjk_kb(), 1)}[name]()
    vec = NgramVectorizer.fit(kb.alias_surfaces(), min_df=min_df)
    assert np.min_scalar_type(vec.vocab_size - 1) == key_dtype
    got, want = build_index(kb, vec), reference_build_index(kb, vec)
    assert list(got.alias_table.items()) == list(want.alias_table.items())
    for field in ("post_ptr", "post_rows", "post_weights"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


# the tracemalloc peak of `encode_csc` over the postings' bytes, in chunks
# of 256 strings so that one chunk's temporaries are small beside the
# whole: 1.28 on the synthetic KB (numpy 2.4, Python 3.11), against a floor
# of 1.19 for the output and the 3 bytes per entry of the pass-1 records.
# Encoding to rows and transposing them, as `build_index` did before,
# reads 1.57.
ENCODE_CSC_PEAK_RATIO = 1.45


def test_encode_csc_memory(synth_index):
    """`encode_csc` holds no whole-matrix temporary beside the postings it
    makes, so its peak stays under a bound set by their bytes."""
    vec = synth_index.vectorizer
    with mock.patch.object(vectorizer, "_CHUNK", 256):
        tracemalloc.start()
        try:
            post_ptr, post_rows, post_weights = vec.encode_csc(synth_index.aliases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / (post_ptr.nbytes + post_rows.nbytes + post_weights.nbytes) < ENCODE_CSC_PEAK_RATIO


# the tracemalloc peak of `build_index` on the synthetic KB at the module's
# `_CHUNK`: 5.1 MB in chunks of 512 strings, 3.0 MB of it the postings
# kept, against 6.0 MB in chunks of 1,024 and 12.0 MB in chunks of 4,096
# (numpy 2.4, Python 3.11)
BUILD_INDEX_PEAK_MB = 7.5


def test_build_index_memory(synth_kb, synth_index):
    tracemalloc.start()
    try:
        build_index(synth_kb, synth_index.vectorizer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < BUILD_INDEX_PEAK_MB


# the tracemalloc peak of `save_index` on the synthetic KB: 0.62 MB, the
# aliases' offsets, joined text and UTF-8 bytes, against 1.14 MB making
# every array of the file before writing the first (numpy 2.4, Python 3.11)
SAVE_INDEX_PEAK_MB = 0.85


def test_save_index_makes_one_array_at_a_time(synth_index, tmp_path):
    tracemalloc.start()
    try:
        save_index(synth_index, str(tmp_path / "synth.blix"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < SAVE_INDEX_PEAK_MB


def test_load_widens_rows_a_block_at_a_time(synth_index, tmp_path):
    """Reading the arrays of a `.blix` file takes no more than the arrays the
    index keeps and one block of int32 rows (and a few small objects): 1.9
    kB over those on the synthetic KB, while reading its 190k rows whole as
    int32 before widening them reads 0.76 MB over the kept arrays."""
    path = tmp_path / "synth.blix"
    save_index(synth_index, str(path))
    assert 4 * len(synth_index.post_rows) > 2 * 4 * index_module._BLOCK
    with open(path, "rb") as fp:
        fp.seek(index_module._HEADER.size)
        tracemalloc.start()
        try:
            arrays = index_module._read_arrays(fp, path.stat().st_size - 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(arrays[-2], synth_index.post_rows)
    assert peak < sum(a.nbytes for a in arrays) + 4 * index_module._BLOCK + (1 << 14)


# the tracemalloc peak of loading the synthetic KB's 2.8 MB `.blix` file with
# one byte of its postings flipped: 1.05 MB, the one 1 MiB buffer the CRC is
# checked in, against 3.85 MB reading every array before checking the CRC
# (numpy 2.4, Python 3.11); the bound is that buffer and some slack
DAMAGED_LOAD_PEAK_MB = 1.25


def test_damaged_file_is_rejected_before_its_arrays_are_read(synth_index, tmp_path):
    path = tmp_path / "synth.blix"
    save_index(synth_index, str(path))
    raw = bytearray(path.read_bytes())
    raw[blix_array_starts(bytes(raw))["post_weights"] + 3] ^= 0x40
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="CRC-32 mismatch"):
            load_index(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < DAMAGED_LOAD_PEAK_MB


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=[
    "shorter than one block", "exactly one block", "one block + 1"])
def test_rows_in_blocks_keep_the_bytes(extra, toy_index, tmp_path):
    """Rows saved and loaded in blocks of any size give the golden bytes and
    the same arrays, and damage to the last row is still found: a flipped
    byte by the CRC, a cut by the CRC or, resealed, as an early end."""
    golden = GOLDEN_BLIX.read_bytes()
    n_rows = len(toy_index.post_rows)
    # a byte of the last row, in the second block when `extra` is 1
    last_row = blix_array_starts(golden)["post_rows"] + 4 * n_rows - 2
    flipped = golden[:last_row] + bytes([golden[last_row] ^ 0x10]) + golden[last_row + 1:]
    path = tmp_path / "toy.blix"
    with mock.patch.object(index_module, "_BLOCK", n_rows - extra):
        save_index(toy_index, str(path))
        assert path.read_bytes() == golden
        loaded = load_index(str(path))
        for field in ("post_ptr", "post_rows", "post_weights"):
            a, b = getattr(loaded, field), getattr(toy_index, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        for raw, match in [(flipped, "CRC-32 mismatch"), (golden[:last_row], "CRC-32 mismatch"),
                           (sealed(golden[:last_row]), "unexpected end of file")]:
            path.write_bytes(raw)
            with pytest.raises(IndexFormatError, match=match):
                load_index(str(path))


def test_failed_save_keeps_existing_file(toy_index, tmp_path):
    path = tmp_path / "toy.blix"
    save_index(toy_index, str(path))
    before = path.read_bytes()
    # the weights are written last, so this fails part-way
    with pytest.raises(TypeError):
        save_index(stand_in(toy_index, post_weights=object()), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["toy.blix"]


def test_magic_constant():
    assert MAGIC == b"BLIX" and FORMAT_VERSION == 4


def test_loaded_postings_are_aligned_and_own_their_data():
    # views of the file's bytes would be unaligned at odd offsets, and would
    # keep the whole file in memory
    index = load_index(str(GOLDEN_BLIX))
    arrays = [index.post_ptr, index.post_rows, index.post_weights,
              index.vectorizer.codes, index.vectorizer.df]
    for arr in arrays:
        assert arr.flags.aligned and arr.flags.owndata
    assert [a.dtype for a in arrays[:3]] == [np.int64, np.int64, np.float64]
