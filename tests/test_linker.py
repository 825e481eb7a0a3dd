import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling.index import build_index
from bioling.kb import load_kb
from bioling.linker import (
    REASON_OUT_OF_VOCABULARY, Candidate, fan_out, generate_candidates,
)
from bioling.vectorizer import NgramVectorizer

from conftest import reference_fan_out


def candidates(index, mention, k, expansion=None):
    return generate_candidates(index, index.alias_table, mention, k,
                               expansion=expansion)


def test_shared_alias_fans_out_past_k(toy_index):
    # one retrieved alias surface names three concepts
    cs = candidates(toy_index, "cancer", 1)
    assert cs.concept_ids() >= {"C01", "C02", "C03"}
    assert len(cs.candidates) > 1
    assert all(c.similarity == pytest.approx(1.0) for c in cs.candidates)


def test_candidates_sorted_by_similarity_then_id(toy_index):
    cs = candidates(toy_index, "lung cancer", 10)
    sims = [c.similarity for c in cs.candidates]
    assert sims == sorted(sims, reverse=True)
    for a, b in zip(cs.candidates, cs.candidates[1:]):
        if a.similarity == b.similarity:
            assert a.concept_id < b.concept_id


def test_concept_deduplicated_keeping_best_alias(toy_index):
    # C01 is reachable via several aliases; it must appear once with the
    # best-scoring one
    cs = candidates(toy_index, "lung cancer", len(toy_index))
    ids = [c.concept_id for c in cs.candidates]
    assert len(ids) == len(set(ids))
    c01 = next(c for c in cs.candidates if c.concept_id == "C01")
    assert c01.alias.lower() == "lung cancer"
    assert c01.similarity == pytest.approx(1.0)


def test_expansion_substitution(toy_index):
    expansion = {"HSP": "heat shock protein"}
    expanded = candidates(toy_index, "HSP", 5, expansion)
    direct = candidates(toy_index, "heat shock protein", 5)
    assert expanded.query_text == "heat shock protein"
    assert expanded.mention == "HSP"
    assert expanded.candidates == direct.candidates


def test_expansion_miss_uses_mention_verbatim(toy_index):
    cs = candidates(toy_index, "IL-2", 5, expansion={"TNF": "x"})
    assert cs.query_text == "IL-2"
    assert "C05" in cs.concept_ids()


def test_out_of_vocabulary_mention(toy_index):
    cs = candidates(toy_index, "ΩΩΩΩ", 5)
    assert cs.candidates == ()
    assert cs.reason == REASON_OUT_OF_VOCABULARY


def test_candidate_growth_monotone_in_k(synth_index):
    mention = "chronic cardoma"
    prev = set()
    for k in (1, 5, 25, 100):
        ids = candidates(synth_index, mention, k).concept_ids()
        assert prev <= ids
        prev = ids


def test_mention_span_carried_through(toy_index):
    cs = generate_candidates(toy_index, toy_index.alias_table, "tumor", 3,
                             start=17, end=22)
    assert (cs.start, cs.end) == (17, 22)


def test_input_validation(toy_index):
    with pytest.raises(ValueError, match="mention"):
        candidates(toy_index, "", 5)
    with pytest.raises(ValueError, match="k"):
        candidates(toy_index, "tumor", 0)


def test_case_variants_are_one_alias_key(tmp_path):
    # "HSP", "Hsp" and "hsp" are one key naming C1 and C2
    lines = [
        {"concept_id": "C1", "canonical_name": "heat shock protein",
         "aliases": ["HSP", "hsp"]},
        {"concept_id": "C2", "canonical_name": "Hsp"},
        {"concept_id": "C3", "canonical_name": "HSPs"},
    ]
    path = tmp_path / "kb.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    kb = load_kb(str(path))
    index = build_index(kb, NgramVectorizer.fit(kb.alias_surfaces(), min_df=1))
    assert index.alias_table == {"HSP": ("C1", "C2"), "HSPs": ("C3",),
                                 "heat shock protein": ("C1",)}
    cs = candidates(index, "hsp", 1)
    assert [(c.concept_id, c.alias) for c in cs.candidates] == [("C1", "HSP"), ("C2", "HSP")]
    assert all(c.similarity == pytest.approx(1.0) for c in cs.candidates)
    # k counts alias keys, so the second slot goes to the next key
    cs = candidates(index, "hsp", 2)
    assert [(c.concept_id, c.alias) for c in cs.candidates] == [
        ("C1", "HSP"), ("C2", "HSP"), ("C3", "HSPs")]
    # the table argument is ignored: the KB's table, keyed by normalized
    # alias, fans "HSP" out to the same concepts
    assert generate_candidates(index, kb.alias_table, "hsp", 2) == cs


# rows of a few aliases whose concept ids overlap, and hits over them in
# `nearest_aliases` order, with cosines from a small set so that they tie
ROW_IDS = st.lists(st.sampled_from(["C1", "C2", "C3", "C10", "C20"]), min_size=1, max_size=3,
                   unique=True).map(lambda ids: tuple(sorted(ids)))


@st.composite
def alias_hits(draw):
    rows = draw(st.lists(ROW_IDS, min_size=1, max_size=8))
    table = {f"alias {i}": ids for i, ids in enumerate(rows)}
    picked = draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=len(table)))
    sims = [draw(st.sampled_from([1.0, 0.75, 0.5, 0.3])) for _ in picked]
    hits = sorted(zip(picked, sims), key=lambda h: (-h[1], h[0]))
    return SimpleNamespace(alias_table=table), hits


@given(alias_hits())
@example((SimpleNamespace(alias_table={"a": ("C2", "C3"), "b": ("C1", "C3"), "c": ("C1",)}),
          [("a", 0.5), ("b", 0.5), ("c", 0.5)]))
@settings(max_examples=300, deadline=None)
def test_fan_out_equals_reference(case):
    index, hits = case
    got = fan_out(index, hits)
    assert got == reference_fan_out(index, hits)
    assert all(type(c) is Candidate for c in got)
