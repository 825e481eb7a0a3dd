import os
import pathlib
import random
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling.index import (
    FORMAT_VERSION, IndexFormatError, MAGIC, build_index, load_index, save_index,
)
from bioling.kb import Concept, KnowledgeBase, normalize_alias
from bioling.vectorizer import NgramVectorizer, zero_vector

from conftest import (
    BLIX_CORRUPTIONS, BruteForceOracle, blix_array_starts, make_synthetic_kb, stand_in,
    synth_alias, write_corrupt_blix,
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
    assert len(toy_index) == len(toy_kb.alias_table)
    assert toy_index.aliases == sorted(toy_index.alias_table) == list(toy_index.alias_table)
    for alias, ids in toy_index.alias_table.items():
        key = normalize_alias(alias)
        assert alias == min(a for a in toy_kb.alias_surfaces() if normalize_alias(a) == key)
        assert ids == tuple(sorted(toy_kb.alias_table[key]))
    assert "Cancer" in toy_index.alias_table and "cancer" not in toy_index.alias_table


def test_exact_match_scores_one(toy_index):
    top = toy_index.nearest_aliases(toy_index.vectorizer.encode("cancer"), 1)
    # "Cancer" and "cancer" share a key; its row is the smaller surface
    assert top[0][0] == "Cancer"
    assert top[0][1] == pytest.approx(1.0)


def test_zero_query_returns_nothing(toy_index):
    assert toy_index.nearest_aliases(zero_vector(), 5) == []


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
    concepts = {f"T{i}": Concept(f"T{i}", a, (a,)) for i, a in enumerate(aliases)}
    table = {normalize_alias(a): frozenset({f"T{i}"}) for i, a in enumerate(aliases)}
    kb = KnowledgeBase(concepts, table)
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


def test_save_load_round_trip_exact(toy_index, tmp_path):
    path = str(tmp_path / "toy.blix")
    save_index(toy_index, path)
    loaded = load_index(path)
    assert loaded.aliases == toy_index.aliases
    assert loaded.vectorizer == toy_index.vectorizer
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
    concepts = {f"C{i}": Concept(f"C{i}", aliases[0], tuple(aliases))
                for i, aliases in enumerate(concept_aliases)}
    table: dict[str, set[str]] = {}
    for concept in concepts.values():
        for alias in concept.aliases:
            table.setdefault(normalize_alias(alias), set()).add(concept.concept_id)
    kb = KnowledgeBase(concepts, {k: frozenset(v) for k, v in table.items()})
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
    assert len(index) == len(kb.alias_table)
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
        assert any(idx.row(i).is_zero for i in range(len(idx)))
        for i, alias in enumerate(idx.aliases):
            want = vec.encode(alias)
            assert np.array_equal(idx.row(i).indices, want.indices)
            assert np.array_equal(idx.row(i).weights, want.weights)


@pytest.mark.parametrize("fixture", ["toy_index", "synth_index"])
def test_index_rows_are_encode_bits(request, fixture):
    index = request.getfixturevalue(fixture)
    for i, alias in enumerate(index.aliases):
        want = index.vectorizer.encode(alias)
        assert np.array_equal(index.row(i).indices, want.indices)
        assert np.array_equal(index.row(i).weights, want.weights)


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
