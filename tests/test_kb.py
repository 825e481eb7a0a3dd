import json
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling.kb import (
    Concept, KBFormatError, KnowledgeBase, kb_stats, load_kb, normalize_alias, save_kb,
)

from conftest import synth_alias


def write_kb(tmp_path, lines, name="kb.jsonl"):
    path = tmp_path / name
    with open(path, "w") as fp:
        for line in lines:
            fp.write(line if isinstance(line, str) else json.dumps(line))
            fp.write("\n")
    return str(path)


def test_load_toy_kb(toy_kb):
    assert set(toy_kb.concepts) == {"C01", "C02", "C03", "C04", "C05"}
    assert toy_kb.concepts["C01"].canonical_name == "Lung Cancer"
    assert toy_kb.concepts["C02"].definition is None
    assert toy_kb.concepts["C01"].definition is not None


def test_canonical_name_becomes_alias(toy_kb):
    assert "Lung Cancer" in toy_kb.concepts["C01"].aliases
    assert toy_kb.alias_table["lung cancer"] == frozenset({"C01"})


def test_shared_alias_maps_to_multiple_concepts(toy_kb):
    assert toy_kb.alias_table["cancer"] == frozenset({"C01", "C02", "C03"})


def test_normalize_alias():
    assert normalize_alias("  Heat  Shock\tProtein ") == "heat shock protein"
    assert normalize_alias("IL-2") == "il-2"
    norm = normalize_alias("A  B")
    assert normalize_alias(norm) == norm  # idempotent


def test_alias_surfaces_order_and_dedup(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "Alpha", "aliases": ["beta"]},
        {"concept_id": "X2", "canonical_name": "Gamma", "aliases": ["beta"]},
    ])
    kb = load_kb(path)
    assert kb.alias_surfaces() == ["Alpha", "beta", "Gamma"]


def test_rejects_duplicate_concept_id(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "A"},
        {"concept_id": "X1", "canonical_name": "B"},
    ])
    with pytest.raises(KBFormatError, match="line 2.*duplicate"):
        load_kb(path)


def test_rejects_invalid_json_with_line_number(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "A"},
        "{broken",
    ])
    with pytest.raises(KBFormatError, match="line 2"):
        load_kb(path)


def test_rejects_deeply_nested_json_with_line_number(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"concept_id": "X1", "canonical_name": "A"}\n'
                    + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(KBFormatError, match="line 2: invalid JSON"):
        load_kb(str(path))


def test_rejects_missing_fields(tmp_path):
    path = write_kb(tmp_path, [{"concept_id": "X1"}])
    with pytest.raises(KBFormatError, match="canonical_name"):
        load_kb(path)


def test_rejects_empty_concept_id(tmp_path):
    path = write_kb(tmp_path, [{"concept_id": "", "canonical_name": "A"}])
    with pytest.raises(KBFormatError, match="concept_id"):
        load_kb(path)


def test_rejects_non_string_aliases(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "A", "aliases": [1, 2]},
    ])
    with pytest.raises(KBFormatError, match="aliases"):
        load_kb(path)


@pytest.mark.parametrize("line, match", [
    ("[1, 2]", "line 2: expected a JSON object, got list"),
    ('"C1"', "line 2: expected a JSON object, got str"),
    ({"concept_id": "X2", "canonical_name": "B", "types": "T1"},
     "line 2: types must be a list of strings"),
    ({"concept_id": "X2", "canonical_name": "B", "types": ["T1", 7]},
     "line 2: types must be a list of strings"),
    ({"concept_id": "X2", "canonical_name": "B", "definition": 5},
     "line 2: definition must be a string or null"),
])
def test_rejects_malformed_concept_line(tmp_path, line, match):
    path = write_kb(tmp_path, [{"concept_id": "X1", "canonical_name": "A"}, line])
    with pytest.raises(KBFormatError, match=match):
        load_kb(path)


def test_accepts_string_definition_and_type_list(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "A", "types": ["T1", "T2"],
         "definition": "a thing"},
    ])
    concept = load_kb(path).concepts["X1"]
    assert concept.types == ("T1", "T2")
    assert concept.definition == "a thing"


def test_blank_lines_skipped(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "A"}, "", "  ",
    ])
    assert set(load_kb(path).concepts) == {"X1"}


def test_save_load_round_trip(toy_kb, tmp_path):
    out = str(tmp_path / "resaved.jsonl")
    save_kb(toy_kb, out)
    reloaded = load_kb(out)
    assert reloaded.concepts == toy_kb.concepts
    assert reloaded.alias_table == toy_kb.alias_table


def test_kb_stats(toy_kb):
    stats = kb_stats(toy_kb)
    assert stats.n_concepts == 5
    assert stats.n_shared_aliases == 1  # "cancer"
    assert stats.n_aliases == len(toy_kb.alias_table)
    assert stats.bytes_on_disk > 0


def test_source_path_is_keyword_only():
    concepts = {"X1": Concept("X1", "a", ("a",))}
    with pytest.raises(TypeError):
        KnowledgeBase(concepts, {"a": frozenset({"X1"})})
    assert KnowledgeBase(concepts, source_path="kb.jsonl").source_path == "kb.jsonl"


def reference_ingest(records: list[dict]) -> tuple[dict, dict]:
    """Each concept's aliases and the alias table, by the eager rules
    `load_kb` once had: every alias normalized as it is read, the canonical
    name put first unless its key is among them."""
    aliases_of, table = {}, {}
    for rec in records:
        aliases = rec["aliases"]
        keys = [normalize_alias(a) for a in aliases]
        canonical_key = normalize_alias(rec["canonical_name"])
        if canonical_key not in keys:
            aliases = [rec["canonical_name"], *aliases]
            keys = [canonical_key, *keys]
        aliases_of[rec["concept_id"]] = tuple(aliases)
        for key in keys:
            table.setdefault(key, set()).add(rec["concept_id"])
    return aliases_of, {key: frozenset(ids) for key, ids in table.items()}


# few letters in two cases, and whitespace: keys often collide
SURFACE = st.text("aAb \t", min_size=1, max_size=6).filter(str.strip)


@st.composite
def kb_records(draw) -> list[dict]:
    """KB lines whose aliases repeat earlier ones, and whose canonical name is
    one of its aliases, one up to case and whitespace, or any surface."""
    records, used = [], []
    for i in range(draw(st.integers(1, 6))):
        surface = st.one_of(SURFACE, st.sampled_from(used)) if used else SURFACE
        aliases = draw(st.lists(surface, max_size=4))
        used += aliases
        kind = draw(st.sampled_from(["literal", "variant", "other"]))
        if kind != "other" and aliases:
            canonical = draw(st.sampled_from(aliases))
            if kind == "variant":
                canonical = f" {canonical.swapcase()}\t"
        else:
            canonical = draw(SURFACE)
        records.append({"concept_id": f"X{i}", "canonical_name": canonical, "aliases": aliases})
    return records


@settings(max_examples=200, deadline=None)
@given(kb_records())
@example([
    # literally an alias; "cancer" is shared with X2
    {"concept_id": "X1", "canonical_name": "Lung Cancer", "aliases": ["cancer", "Lung Cancer"]},
    # an alias only after case and whitespace normalization
    {"concept_id": "X2", "canonical_name": "Breast  CANCER", "aliases": ["breast cancer", "cancer"]},
    # absent, with two surfaces of one key
    {"concept_id": "X3", "canonical_name": "Tumor", "aliases": ["growth", " Growth"]},
])
def test_ingest_equals_eager_rules(records):
    aliases_of, table = reference_ingest(records)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "kb.jsonl")
        with open(path, "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps(rec) + "\n" for rec in records)
        kb = load_kb(path)
    assert {cid: c.aliases for cid, c in kb.concepts.items()} == aliases_of
    assert list(kb.alias_table.items()) == list(table.items())


def test_synthetic_kb_shape(synth_kb):
    assert len(synth_kb.concepts) == 4_000
    assert len(synth_kb.alias_surfaces()) == 10_000
    assert any(len(ids) > 1 for ids in synth_kb.alias_table.values())


def test_rejects_non_utf8_with_line_number(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_bytes(b'{"concept_id": "C1", "canonical_name": "A"}\n\xff\xfe\n')
    with pytest.raises(KBFormatError, match="line 2: not valid UTF-8"):
        load_kb(str(path))


@pytest.mark.parametrize("field, concept", [
    ("concept_id", '{"concept_id": "X\\ud800", "canonical_name": "B"}'),
    ("canonical_name", '{"concept_id": "X2", "canonical_name": "B\\udfff"}'),
    ("aliases", '{"concept_id": "X2", "canonical_name": "B", "aliases": ["ok", "\\ud83d"]}'),
    ("types", '{"concept_id": "X2", "canonical_name": "B", "types": ["T\\udc00"]}'),
    ("definition", '{"concept_id": "X2", "canonical_name": "B", "definition": "\\ud800x"}'),
])
def test_rejects_lone_surrogate_with_line_and_field(tmp_path, field, concept):
    path = write_kb(tmp_path, [{"concept_id": "X1", "canonical_name": "A"}, concept])
    with pytest.raises(KBFormatError, match=f"line 2: {field} is not valid UTF-8"):
        load_kb(path)


def test_accepts_escaped_surrogate_pair(tmp_path):
    path = write_kb(tmp_path, ['{"concept_id": "X1", "canonical_name": "\\ud83d\\ude00 A"}'])
    assert load_kb(path).concepts["X1"].canonical_name == "\U0001F600 A"


# -- one string per distinct value --------------------------------------

def test_loaded_concept_has_no_instance_dict(toy_kb):
    concept = toy_kb.concepts["C01"]
    assert not hasattr(concept, "__dict__")
    with pytest.raises(AttributeError):
        concept.concept_id = "C99"


def test_canonical_name_is_its_equal_alias(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": "X1", "canonical_name": "Lung Cancer", "aliases": ["cancer", "Lung Cancer"]},
        {"concept_id": "X2", "canonical_name": "Breast Cancer", "aliases": ["breast cancer"]},
    ])
    x1, x2 = load_kb(path).concepts.values()
    assert x1.canonical_name is x1.aliases[1]
    # equal only after normalization: the alias is kept, the name is not an alias
    assert x2.aliases == ("breast cancer",) and x2.canonical_name == "Breast Cancer"


def test_equal_type_lists_share_one_tuple(tmp_path):
    path = write_kb(tmp_path, [
        {"concept_id": f"X{i}", "canonical_name": f"c{i}", "types": types}
        for i, types in enumerate([["T047", "T191"], ["T116"], ["T047", "T191"], [], []])
    ])
    t0, t1, t2, t3, t4 = (c.types for c in load_kb(path).concepts.values())
    assert t0 == t2 == ("T047", "T191") and t0 is t2
    assert t1 == ("T116",) and t3 is t4


@pytest.mark.parametrize("s", ["heat shock protein", "il-2", "a", "αβ 2"])
def test_normalized_alias_is_returned_itself(s):
    assert normalize_alias(s) is s
    assert normalize_alias(s.upper()) == s


def _memory_kb(path, n_concepts: int) -> None:
    """A KB shaped like the benchmark's: each canonical name is literally its
    first alias, aliases mostly lowercase already, one type list for all."""
    rng = random.Random(7)
    with open(path, "w", encoding="utf-8") as fp:
        for i in range(n_concepts):
            names = [f"{synth_alias(rng)} {i}", f"{synth_alias(rng)} {i}"]
            if i % 3 == 0:
                names.append(names[0].capitalize())
            fp.write(json.dumps({"concept_id": f"C{i:07d}", "canonical_name": names[0],
                                 "aliases": names, "types": ["T047"], "definition": None}))
            fp.write("\n")


# tracemalloc bytes that `load_kb` keeps per concept of `_memory_kb`: 375
# (Python 3.11), against 586 with a dict per concept, a canonical name
# apart from its alias and a types tuple per concept
LOAD_KB_BYTES_PER_CONCEPT = 480


def test_load_kb_memory_per_concept(tmp_path):
    path = tmp_path / "kb.jsonl"
    _memory_kb(path, 3_000)
    tracemalloc.start()
    try:
        kb = load_kb(str(path))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / len(kb.concepts) < LOAD_KB_BYTES_PER_CONCEPT
