import pytest

from bioling.segmenter import (
    SegmenterConfig, citation_split_rate, default_segmenter_config,
    parse_segmenter_config, segment,
)
from bioling.tokenizer import RulesFileError, tokenize

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
