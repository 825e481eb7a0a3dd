import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling.doc import Document, Token
from bioling.segmenter import (
    SegmenterConfig, citation_split_rate, default_segmenter_config,
    parse_segmenter_config, segment,
)
from bioling.tokenizer import RulesFileError, tokenize

from conftest import reference_segment

NAIVE = SegmenterConfig()  # no stoplist, no citation handling


def sentence_texts(doc):
    return [doc.text[slice(*doc.sentence_char_span(s))] for s in doc.sentences]


def sentences_of(text, cfg=None):
    return sentence_texts(segment(tokenize(text), cfg))


def test_two_sentence_canonical_case():
    assert sentences_of("Mice were treated. Results improved.") == [
        "Mice were treated.", "Results improved.",
    ]


def test_paren_author_year_stays_single():
    assert len(sentences_of("This was shown previously (Smith et al., 2002).")) == 1


def test_stoplist_and_decimals_stay_single():
    assert len(sentences_of("The level was 3.5 vs. 2.1 in controls.")) == 1


def test_no_boundary_inside_brackets():
    text = "Values (mean 3.2! range 1-5) were recorded."
    assert len(sentences_of(text)) == 1


def test_unbalanced_close_bracket_tolerated():
    text = "Oddly placed) bracket. Second sentence."
    assert len(sentences_of(text)) == 2


def test_confirmation_blocks_lowercase_continuation():
    assert len(sentences_of("The species C. elegans grows fast.")) == 1


def test_exclamation_and_question_marks():
    assert len(sentences_of("Did it work? It did! Results follow.")) == 3


def test_empty_document():
    doc = segment(tokenize(""))
    assert doc.sentences == ()


def test_partition_and_monotonicity():
    text = ("Treatment reduced tumor size. However, p>0.05 overall. "
            "Survival improved (Fig. 2). Data are shown in Table 1.")
    doc = segment(tokenize(text))
    covered = []
    prev_last = -1
    for s in doc.sentences:
        assert s.first_token == prev_last + 1
        assert s.first_token <= s.last_token
        covered.extend(range(s.first_token, s.last_token + 1))
        prev_last = s.last_token
    assert covered == list(range(len(doc.tokens)))


def test_bracket_safety_replay():
    text = "A finding (with [nested, 3.5! deep] content). Next one."
    doc = segment(tokenize(text))
    depth = 0
    boundary_at = {s.last_token for s in doc.sentences[:-1]}
    for i, tok in enumerate(doc.tokens):
        if tok.surface in "([{":
            depth += 1
        elif tok.surface in ")]}":
            depth = max(0, depth - 1)
        if i in boundary_at:
            assert depth == 0


def test_determinism():
    text = "One [1]. Two (Smith et al., 2000). Three!"
    a = segment(tokenize(text)).sentences
    b = segment(tokenize(text)).sentences
    assert a == b


def test_bracket_citation_attached_to_current_sentence():
    text = "Results improved. [3] Next trial began."
    with_cite = segment(tokenize(text), default_segmenter_config())
    assert sentence_texts(with_cite) == [
        "Results improved. [3]", "Next trial began.",
    ]
    without = segment(tokenize(text), NAIVE)
    assert sentence_texts(without) == [
        "Results improved.", "[3] Next trial began.",
    ]


def test_author_year_citation_attached():
    text = "The effect is known. (Smith et al., 2002) Replication followed."
    doc = segment(tokenize(text), default_segmenter_config())
    assert sentence_texts(doc)[0] == \
        "The effect is known. (Smith et al., 2002)"


def test_plain_author_year_needs_stoplist():
    text = "As Jones et al. 2004 reported, expression increased."
    assert len(sentences_of(text, default_segmenter_config())) == 1
    assert len(sentences_of(text, NAIVE)) == 2


def test_config_parsing():
    cfg = parse_segmenter_config(
        "# cfg\nNOSPLIT al.\nNOSPLIT Fig.\nCITE_BRACKET\n"
    )
    assert cfg.stoplist == frozenset({"al.", "fig."})
    assert cfg.cite_bracket and not cfg.cite_author_year
    # a flag directive takes no argument
    with pytest.raises(RulesFileError, match="line 2"):
        parse_segmenter_config("NOSPLIT al.\nCITE_BRACKET yes please\n")


def test_config_rejects_unknown_directive():
    with pytest.raises(RulesFileError):
        parse_segmenter_config("SPLIT_EVERYTHING\n")


def test_config_rejects_empty_stoplist_entry():
    with pytest.raises(ValueError):
        SegmenterConfig(stoplist=frozenset({""}))


def test_citation_split_rate_single_correct():
    assert citation_split_rate(["A result [3]."], default_segmenter_config()) == 1.0


def test_citation_split_rate_differential():
    adversarial = [
        "As Smith et al. 2001 showed, levels rose.",
        "Data from Chen et al. 2019 support this claim.",
    ]
    full = citation_split_rate(adversarial, default_segmenter_config())
    naive = citation_split_rate(adversarial, NAIVE)
    assert full == 1.0
    assert naive < 1.0


def test_citation_split_rate_empty_errors():
    with pytest.raises(ValueError, match="empty evaluation set"):
        citation_split_rate([], default_segmenter_config())


# -- differential property: the candidate scan against the per-token loop --

# brackets and terminals alone and attached, stoplisted abbreviations,
# citation parts, and words that do and do not confirm a boundary
_SURFACES = [".", "!", "?", "(", ")", "[", "]", "{", "}", "al.", "Fig.", "e.g.",
             "vs.", "et", "Smith", "Jones", "2002", "1999a", "1,2", "3", "4-6", ",",
             "rose.", "cells!", "Why?", "x)", "a(", "[1]", "The", "mice", "“Data", ""]


def hand_built(surfaces):
    """A document whose tokens are exactly `surfaces`, one space apart."""
    tokens, pos = [], 0
    for surface in surfaces:
        tokens.append(Token(surface, pos, pos + len(surface), " "))
        pos += len(surface) + 1
    return Document(" ".join(surfaces) + " " * bool(surfaces), tuple(tokens))


# whole citations, attached or not; one holds an unbalanced bracket, whose
# depth counts only if the citation's tokens are visited. "[ ]" holds no
# number, and the last author-year one is as long as the matcher's scan takes
_CITATIONS = [["(", "Smith", "et", "al.", ",", "2002", ")"], ["(", "Jones", "1999a", ")"],
              ["[", "1,2", "]"], ["[", "3", ",", "4-6", "]"],
              ["(", "Smith", "[", "2002", ")"], ["(", "Jones", "}", "1999a", ")"],
              ["[", "]"],
              ["(", "Smith", ",", "Jones", ",", "Chen", "et", "al.", "2002", ")"]]


@pytest.mark.parametrize("cite_bracket", [False, True])
@pytest.mark.parametrize("cite_author_year", [False, True])
@given(parts=st.lists(st.one_of(st.sampled_from(_SURFACES).map(lambda s: [s]),
                                st.sampled_from(_CITATIONS)), max_size=30))
@settings(max_examples=300, deadline=None)
@example(parts=[["Cells", "rose."], _CITATIONS[4], ["Then", "fell.", "Next", "."]])
def test_segment_equals_loop_oracle(cite_bracket, cite_author_year, parts):
    cfg = SegmenterConfig(default_segmenter_config().stoplist, cite_bracket,
                          cite_author_year)
    doc = hand_built([s for part in parts for s in part])
    assert segment(doc, cfg) == reference_segment(doc, cfg)


def test_empty_surface_token_segments():
    doc = hand_built(["", "Cells", "", "rose.", "Next", "", "."])
    cfg = default_segmenter_config()
    assert segment(doc, cfg) == reference_segment(doc, cfg)
    assert [(s.first_token, s.last_token) for s in segment(doc, cfg).sentences] == \
        [(0, 3), (4, 6)]
