import gc
import re
import statistics
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioling import tokenizer
from bioling.doc import Document, Token, detokenize
from bioling.tokenizer import (
    RulesFileError, TokenizerRules, default_biomedical_rules, load_rules,
    parse_rules, tokenize,
)


# -- reference splitter ----------------------------------------------------
# The loop splitter the compiled matchers replaced, kept as the oracle the
# differential property compares `tokenize` against.

def _match_prefix(rules, piece):
    for p in rules.prefixes:
        if piece.startswith(p):
            return p
    return None


def _match_suffix(rules, piece):
    for s in rules.suffixes:
        if piece.endswith(s):
            return s
    return None


def _split_infix(rules, piece, offset):
    spans = []
    seg_start = 0
    i = 0
    n = len(piece)
    while i < n:
        hit = None
        # earliest rule in the ordered list wins at a given position
        for inf in rules.infixes:
            if piece.startswith(inf, i):
                hit = inf
                break
        if hit is None:
            i += 1
            continue
        if i > seg_start:
            spans.append((offset + seg_start, offset + i))
        spans.append((offset + i, offset + i + len(hit)))
        seg_start = i + len(hit)
        i = seg_start
    if seg_start < n:
        spans.append((offset + seg_start, offset + n))
    return spans


def _split_chunk(rules, chunk):
    spans = []
    end_spans = []
    start, end = 0, len(chunk)
    while start < end:
        piece = chunk[start:end]
        if piece in rules.protected or piece in rules.specials:
            break
        pre = _match_prefix(rules, piece)
        if pre is not None:
            spans.append((start, start + len(pre)))
            start += len(pre)
            continue
        suf = _match_suffix(rules, piece)
        if suf is not None and len(suf) < len(piece):
            end_spans.append((end - len(suf), end))
            end -= len(suf)
            continue
        break
    piece = chunk[start:end]
    if piece:
        if piece in rules.specials:
            pos = start
            for part in rules.specials[piece]:
                spans.append((pos, pos + len(part)))
                pos += len(part)
        elif piece in rules.protected:
            spans.append((start, end))
        else:
            spans.extend(_split_infix(rules, piece, start))
    spans.extend(reversed(end_spans))
    return spans


def oracle_tokenize(text, rules):
    tokens = []
    chunk_matches = list(re.finditer(r"\S+", text))
    leading = text[:chunk_matches[0].start()] if chunk_matches else text
    for ci, m in enumerate(chunk_matches):
        chunk = m.group()
        base = m.start()
        gap_end = (chunk_matches[ci + 1].start()
                   if ci + 1 < len(chunk_matches) else len(text))
        rel_spans = _split_chunk(rules, chunk)
        for si, (rs, re_) in enumerate(rel_spans):
            trailing = text[m.end():gap_end] if si == len(rel_spans) - 1 else ""
            tokens.append(Token(chunk[rs:re_], base + rs, base + re_, trailing))
    return Document(text, tuple(tokens), (), leading)


def surfaces(text, rules=None):
    return [t.surface for t in tokenize(text, rules).tokens]


def test_empty_input():
    assert surfaces("") == []


def test_whitespace_only_input():
    doc = tokenize(" \t\n")
    assert doc.tokens == ()
    assert detokenize(doc) == " \t\n"


@pytest.mark.parametrize("text,expected", [
    ("IL-2 (interleukin-2).", ["IL-2", "(", "interleukin-2", ")", "."]),
    ("p<0.05", ["p", "<", "0.05"]),
    ("mg/kg", ["mg", "/", "kg"]),
    ("10-20%", ["10-20", "%"]),
    ("NF-kappa B", ["NF-kappa", "B"]),
    ("Fig. 3 shows", ["Fig.", "3", "shows"]),
    ("e.g., mice", ["e.g.", ",", "mice"]),
    ("(see [1,2]).", ["(", "see", "[", "1,2", "]", ")", "."]),
    ("3.5 vs. 2.1", ["3.5", "vs.", "2.1"]),
    ("p=0.01!", ["p", "=", "0.01", "!"]),
])
def test_default_rule_fixtures(text, expected):
    assert surfaces(text) == expected


def test_default_rules_protect_fig():
    rules = default_biomedical_rules()
    assert "Fig." in rules.protected


def test_default_rules_prefix_paren():
    rules = default_biomedical_rules()
    assert "(" in rules.prefixes


@pytest.mark.parametrize("path", [None, ""])
def test_load_rules_without_a_path_is_the_shipped_rules(path):
    assert load_rules(path) is default_biomedical_rules()


def test_protected_token_beats_suffix_split():
    assert surfaces("(Fig.)") == ["(", "Fig.", ")"]


def test_special_case_expansion():
    rules = parse_rules("SPECIAL don't => do|n't\n")
    assert surfaces("don't", rules) == ["do", "n't"]
    assert detokenize(tokenize("don't stop", rules)) == "don't stop"


def test_special_pieces_must_concatenate():
    with pytest.raises(RulesFileError):
        parse_rules("SPECIAL abc => a|c\n")


def test_unknown_directive_rejected():
    with pytest.raises(RulesFileError, match="line 1"):
        parse_rules("FROBNICATE x\n")


def test_rules_file_comments_and_blanks():
    rules = parse_rules("# comment\n\nPREFIX (\nSUFFIX .\nPROTECT al.\n")
    assert rules.prefixes == ("(",)
    assert rules.protected == frozenset({"al."})


# characters `str.splitlines` breaks at; a file read with universal newlines
# breaks only at "\n", "\r" and "\r\n"
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029", "\r", "\r\n"])
def test_rules_text_and_file_split_lines_alike(sep, tmp_path):
    path = tmp_path / "rules.txt"
    # a rule after the character loads only where the line breaks there
    text = f"PREFIX (\n# note{sep}PROTECT e.g.\nSUFFIX )\n"
    path.write_bytes(text.encode("utf-8"))
    assert parse_rules(text) == load_rules(str(path))
    # the same line numbers in errors, too
    text = f"PREFIX (\nPROTECT a{sep}FROBNICATE x\nSUFFIX )\nFROBNICATE y\n"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(RulesFileError) as from_text:
        parse_rules(text)
    with pytest.raises(RulesFileError) as from_file:
        load_rules(str(path))
    assert f"{path}: {from_text.value}" == str(from_file.value)


def test_infix_earliest_rule_wins():
    # both rules match at the same position; the first-listed one is used
    rules = TokenizerRules(infixes=("<=", "<"))
    assert surfaces("a<=b", rules) == ["a", "<=", "b"]
    rules_rev = TokenizerRules(infixes=("<", "<="))
    assert surfaces("a<=b", rules_rev) == ["a", "<", "=b"]


def test_deterministic():
    text = "Chronic (long-term) HIV-1 infection, p<0.001 [3]."
    assert surfaces(text) == surfaces(text)


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_lossless_property(s):
    doc = tokenize(s)
    assert detokenize(doc) == s
    assert all(type(tok) is Token for tok in doc.tokens)


@given(st.text(alphabet="αβγδ()[]{}.,;%<>/=- \n0123456789abcXYZ", max_size=120))
@settings(max_examples=300, deadline=None)
def test_no_empty_tokens(s):
    for tok in tokenize(s).tokens:
        assert tok.end > tok.start
        assert tok.surface


def test_pathological_long_token_terminates():
    text = "x" * 1_000_000
    doc = tokenize(text)
    assert [t.surface for t in doc.tokens] == [text]


def test_linear_time_sanity():
    base = ("Chronic obstructive pulmonary disease (COPD), p<0.05 "
            "in 10-20% of cases [1,2]. ") * 2000
    doubled = base * 2

    def seconds(text):
        t0 = time.perf_counter()
        tokenize(text)
        return time.perf_counter() - t0

    # A full collection of the suite's heap can outlast a whole timed run,
    # so the collector is paused, as timeit does. Each doubled run is timed
    # next to a base run and the median of the pair ratios is taken, so a
    # change in host speed that lasts one short run cannot set the ratio.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = [seconds(doubled) / seconds(base) for _ in range(5)]
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = statistics.median(ratios)
    assert ratio <= 2.5, f"doubling input scaled runtime by {ratio:.2f}x"


@pytest.mark.parametrize("kind", ["prefixes", "suffixes", "infixes", "protected"])
def test_empty_rule_string_rejected(kind):
    # an empty affix would match everywhere without consuming anything
    value = frozenset({""}) if kind == "protected" else ("-", "")
    with pytest.raises(ValueError, match=f"empty string in {kind}"):
        TokenizerRules(**{kind: value})


def test_empty_special_literal_rejected():
    with pytest.raises(ValueError, match="empty string in specials"):
        TokenizerRules(specials={"": ()})
    with pytest.raises(RulesFileError, match="line 2: empty string in specials"):
        parse_rules("PREFIX (\nSPECIAL =>\n")


# a chunk never holds whitespace, so a literal that does could never apply
@pytest.mark.parametrize("directive, arg, kind", [
    ("PREFIX", "( [", "prefixes"),
    ("SUFFIX", "a b", "suffixes"),
    ("INFIX", "-\u00a0-", "infixes"),
    ("PROTECT", "e. g.", "protected"),
    ("SPECIAL", "can not => can| not", "specials"),
])
def test_rule_literal_with_whitespace_rejected(directive, arg, kind):
    with pytest.raises(RulesFileError, match=f"line 2: whitespace in {kind} literal"):
        parse_rules(f"PROTECT al.\n{directive} {arg}\n")
    literal = arg.split(" =>")[0]
    value = ({literal: ("can", " not")} if kind == "specials"
             else frozenset({literal}) if kind == "protected" else (literal,))
    with pytest.raises(ValueError, match=f"whitespace in {kind} literal"):
        TokenizerRules(**{kind: value})


# -- differential property: compiled matchers and memo against the oracle --

# "]^\\" and "-" are special inside a regex character class
_RULE_CHARS = ".,<=()-ab]^\\"
_AFFIXES = st.text(alphabet=_RULE_CHARS, min_size=1, max_size=3)
_TEXT_CHARS = ".,<=()-ab1 \n\t\r]^\\\u00a0\x1c\u2028\u3000"


@st.composite
def rule_sets(draw):
    # overlapping multi-character affixes, in either order
    overlapping = st.sampled_from([("..", "."), (".", ".."), ("<=", "<"),
                                   ("<", "<="), ("((", "("), ("a.", ".")])
    def affixes():
        return st.lists(st.one_of(_AFFIXES, overlapping.map(lambda t: t[0])),
                        max_size=4).map(tuple)
    prefixes = draw(affixes())
    suffixes = draw(st.one_of(affixes(), overlapping))
    infixes = draw(st.one_of(affixes(), overlapping))
    protected = frozenset(draw(st.lists(
        st.text(alphabet=_RULE_CHARS, min_size=1, max_size=5), max_size=3)))
    specials = {}
    for literal in draw(st.lists(st.text(_RULE_CHARS, min_size=2, max_size=4),
                                 max_size=2)):
        cut = draw(st.integers(1, len(literal) - 1))
        specials[literal] = (literal[:cut], literal[cut:])
    return TokenizerRules(prefixes, suffixes, infixes, protected, specials)


@st.composite
def rules_and_text(draw):
    rules = draw(rule_sets())
    literals = sorted(rules.protected | set(rules.specials)) or ["a"]
    parts = draw(st.lists(st.one_of(st.text(_TEXT_CHARS, max_size=6),
                                    st.sampled_from(literals)), max_size=12))
    return rules, "".join(parts)


@given(rules_and_text())
@settings(max_examples=400, deadline=None)
@example((TokenizerRules(suffixes=("..", ".")), "a.. .. ... ..a"))
@example((TokenizerRules(suffixes=("..", "."), infixes=(".",)), ".. a.."))
@example((TokenizerRules(suffixes=(")", ".)", ")")), "a.)"))
@example((TokenizerRules(prefixes=("<", "<="), infixes=("<=", "<")), "<=a<=b<c <<="))
@example((TokenizerRules(suffixes=(")", ".", ".)"), protected=frozenset({"b.)"})),
          "b.) (b.).) .)"))
# leading and trailing whitespace of every kind: each token's offset runs on
# from the whitespace the scan consumed before it
@example((TokenizerRules(suffixes=(".",)), " \r\n\x1c\u2028a.\u3000 b\t"))
@example((TokenizerRules(prefixes=("(",)), "\u3000\u2028(a \x1c\r\n"))
@example((TokenizerRules(), "\u2028\u3000 \x1c"))
def test_tokenize_equals_loop_oracle(case):
    rules, text = case
    # twice, so the second pass reads every chunk from the memo
    for _ in range(2):
        doc = tokenize(text, rules)
        assert doc == oracle_tokenize(text, rules)
        # tuple equality cannot tell a plain tuple from a Token
        assert all(type(tok) is Token for tok in doc.tokens)


def test_memo_eviction_keeps_outputs():
    d = default_biomedical_rules()

    def fresh():
        return TokenizerRules(d.prefixes, d.suffixes, d.infixes, d.protected, d.specials)

    rules = fresh()
    distinct = " ".join(f"(x{i}/y{i})." for i in range(tokenizer._MEMO_MAX + 500))
    repeated = "(x1/y1). p<0.05 (x7/y7). Fig. e.g., " * 50
    texts = (distinct, repeated, distinct, repeated)
    docs = [tokenize(text, rules) for text in texts]
    assert rules._splitter.split.cache_info().currsize <= tokenizer._MEMO_MAX
    assert docs == [tokenize(text, fresh()) for text in texts]
    assert docs[1] == oracle_tokenize(repeated, rules)


# -- the fast path: chunks no rule can touch -------------------------------

@pytest.mark.parametrize("rules_text,text,expected", [
    # a special case with no affix character still splits
    ("SPECIAL cannot => can|not\n", "we cannot go", ["we", "can", "not", "go"]),
    # a protected literal that ends in a suffix character stays whole
    ("SUFFIX .\nPROTECT al.\n", "et al. x.", ["et", "al.", "x", "."]),
    # one-character chunks equal to a prefix, a suffix and an infix
    ("PREFIX (\nSUFFIX )\nINFIX /\n", "( ) / a a( )a",
     ["(", ")", "/", "a", "a(", ")a"]),
    # multi-character affixes whose end characters occur in plain words
    ("PREFIX un\nSUFFIX ly\nINFIX and\n", "only until lyre y un banana bandit",
     ["on", "ly", "un", "til", "lyre", "y", "un", "banana", "b", "and", "it"]),
    # rules made of characters special inside a regex character class
    ("PREFIX ]\nSUFFIX ^\nINFIX \\\nINFIX -\n", "]a b^ c\\d e-f ^x x] a- ^",
     ["]", "a", "b", "^", "c", "\\", "d", "e", "-", "f", "^x", "x]", "a", "-", "^"]),
    # non-ASCII whitespace separates chunks
    (None, "a\u00a0b\u2009(c) \u00a0d\u2009", ["a", "b", "(", "c", ")", "d"]),
    # the scan peels one prefix and up to two suffixes, in text order
    (None, "(a), b. [c]! d., (e", ["(", "a", ")", ",", "b", ".", "[", "c", "]",
                                   "!", "d", ".", ",", "(", "e"]),
    # a protected piece met after a suffix or the prefix is peeled
    ("SUFFIX .\nSUFFIX ,\nPROTECT al.\n", "al., al,", ["al.", ",", "al", ","]),
    ("PREFIX (\nSUFFIX )\nPROTECT a)\n", "(a) (b)", ["(", "a)", "(", "b", ")"]),
    # protected pieces met at every depth of one chunk
    ("PREFIX (\nSUFFIX )\nSUFFIX .\nPROTECT (a).\nPROTECT b).\nPROTECT (c\n",
     "(a). (b). (c (d).", ["(a).", "(", "b).", "(c", "(", "d", ")", "."]),
    # a special case as the core
    ("PREFIX (\nSUFFIX )\nSUFFIX ,\nSPECIAL cannot => can|not\n", "(cannot),",
     ["(", "can", "not", ")", ","]),
    # one-character affixes shadowed by longer ones
    ("PREFIX ((\nPREFIX (\nSUFFIX ..\nSUFFIX .\n", "((a.. (a. a..",
     ["((", "a", "..", "(", "a", ".", "a", ".."]),
    ("PREFIX (a\nPREFIX (\n", "(ab (b", ["(a", "b", "(", "b"]),
    ("SUFFIX a.\nSUFFIX .\n", "ba. b.", ["b", "a.", "b", "."]),
    # three suffixes: the scan takes at most two
    ("SUFFIX )\nSUFFIX .\nSUFFIX ,\n", "a)., b).", ["a", ")", ".", ",", "b", ")", "."]),
    # no one-character prefix or suffix
    ("PREFIX ((\nSUFFIX ..\n", "((a.. a. (a", ["((", "a", "..", "a.", "(a"]),
])
def test_fast_path_equals_loop_oracle(rules_text, text, expected):
    rules = default_biomedical_rules() if rules_text is None else parse_rules(rules_text)
    doc = tokenize(text, rules)
    assert [t.surface for t in doc.tokens] == expected
    assert doc == oracle_tokenize(text, rules)
    assert detokenize(doc) == text


def test_fast_shape_skips_the_rules():
    d = default_biomedical_rules()
    rules = TokenizerRules(d.prefixes, d.suffixes, d.infixes, d.protected, d.specials)
    for _ in range(2):
        tokenize("(a), b. [c]! d.,", rules)
    assert rules._splitter.split.cache_info().misses == 0


# -- linear time: long runs of affixes -------------------------------------

def test_long_chunk_skips_the_memo():
    d = default_biomedical_rules()
    rules = TokenizerRules(d.prefixes, d.suffixes, d.infixes, d.protected, d.specials)
    text = "(a/b" + "." * 1000
    doc = tokenize(text, rules)
    assert rules._splitter.split.cache_info().currsize == 0
    assert doc == oracle_tokenize(text, rules)


# each chunk is one run of affixes; a loop that slices the rest of the
# chunk on every peel took over 10 s at this size
@pytest.mark.parametrize("text", ["a" + "." * 300_000, "(" * 300_000 + "a"],
                         ids=["suffix run", "prefix run"])
def test_affix_run_takes_linear_time(text):
    t0 = time.perf_counter()
    doc = tokenize(text)
    assert time.perf_counter() - t0 < 5.0
    assert len(doc.tokens) == len(text)
    assert detokenize(doc) == text


@st.composite
def rules_and_repeated_text(draw):
    """A short unit repeated up to a few thousand times, so one chunk can
    hold thousands of affixes, between two short pieces of text."""
    rules = draw(rule_sets())
    literals = sorted(rules.protected | set(rules.specials)) or ["a"]
    piece = st.one_of(st.text(_TEXT_CHARS, max_size=4), st.sampled_from(literals))
    unit = draw(st.one_of(st.text(_RULE_CHARS, min_size=1, max_size=3), piece))
    return rules, draw(piece) + unit * draw(st.integers(1, 3000)) + draw(piece)


@given(rules_and_repeated_text())
@settings(max_examples=60, deadline=None)
@example((TokenizerRules(prefixes=("(",), suffixes=(")", "."), protected=frozenset({"a)."})),
          "(" * 2000 + "a" + ")." * 2000))
def test_repeated_unit_equals_loop_oracle(case):
    rules, text = case
    assert tokenize(text, rules) == oracle_tokenize(text, rules)
