import json

import pytest

import bioling
from bioling import Candidate, SentenceSpan, Token, segment, tokenize
from bioling.doc import from_json_obj, json_line


def test_every_public_name_resolves():
    missing = [name for name in bioling.__all__ if not hasattr(bioling, name)]
    assert missing == []


def test_token_and_candidate_field_order():
    # all are NamedTuples, so the field order is part of the API
    assert Token._fields == ("surface", "start", "end", "trailing_ws")
    assert Candidate._fields == ("concept_id", "alias", "similarity")
    assert SentenceSpan._fields == ("first_token", "last_token")
    assert Token("a", 0, 1) == ("a", 0, 1, "")


@pytest.mark.parametrize("value,field", [
    (Token("a", 0, 1), "surface"), (Token("a", 0, 1), "trailing_ws"),
    (Candidate("C1", "a", 1.0), "concept_id"), (Candidate("C1", "a", 1.0), "similarity"),
])
def test_token_and_candidate_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_document_json_round_trip():
    doc = segment(tokenize("  Levels (IL-2/IL-4) rose, e.g. 5\u00b12% [3].\tSee Fig. 2. \n"))
    assert len(doc.sentences) == 2
    assert from_json_obj(json.loads("".join(json_line(doc)))) == doc
