import json
import math
import pathlib
import random
import re
import struct
import zlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from bioling import segmenter
from bioling.abbrev import _is_valid_short_form, _max_long_form_words, _validate_pair
from bioling.doc import AbbreviationPair, Document, MentionSpan, SentenceSpan
from bioling.index import AliasIndex, build_index, save_index
from bioling.kb import Concept, KnowledgeBase, load_kb, normalize_alias
from bioling.linker import Candidate
from bioling.segmenter import SegmenterConfig
from bioling.tokenizer import tokenize
from bioling.vectorizer import NgramVectorizer, SparseVector, zero_vector

# citation families a segmenter without citation handling tends to split
ADVERSARIAL_FAMILIES = frozenset({"plain_author_year"})


def to_json_obj(doc: Document) -> dict:
    """A document's JSON form as an object: `json_line` writes its
    `json.dumps(..., ensure_ascii=False)`, byte for byte."""
    return {
        "text": doc.text,
        "tokens": [{"start": t.start, "end": t.end} for t in doc.tokens],
        "sentences": [
            {"first_token": s.first_token, "last_token": s.last_token}
            for s in doc.sentences
        ],
    }

# word pool for synthetic aliases; drawn from recognizable biomedical
# morphemes so character 3-grams overlap heavily across aliases
_STEMS = [
    "card", "hepat", "nephr", "neur", "cyt", "derm", "gastr", "hem", "oste",
    "path", "scler", "therm", "tox", "vas", "angi", "arthr", "bronch",
    "cerebr", "chondr", "crani", "encephal", "fibr", "gluc", "lip", "my",
    "necr", "pneum", "ren", "splen", "thromb",
]
_SUFFIXES = [
    "oma", "itis", "osis", "emia", "pathy", "ectomy", "plasty", "gram",
    "cyte", "blast", "gen", "lysis", "trophy", "plasia", "oid",
]
_MODIFIERS = [
    "acute", "chronic", "benign", "malignant", "primary", "secondary",
    "diffuse", "focal", "bilateral", "recurrent", "familial", "idiopathic",
    "juvenile", "systemic", "localized",
]


def synth_word(rng: random.Random) -> str:
    return rng.choice(_STEMS) + rng.choice(_SUFFIXES)


def synth_alias(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.6:
        parts.append(rng.choice(_MODIFIERS))
    parts.append(synth_word(rng))
    if rng.random() < 0.3:
        parts.append(synth_word(rng))
    return " ".join(parts)


def longest_word_mentions(text: str) -> tuple[str, list[tuple[int, int]]]:
    """`text` and mention spans on its five longest distinct alphabetic
    token surfaces over 3 characters, ties in surface order, each at its
    first occurrence: a deterministic stand-in for gold mentions."""
    first: dict[str, tuple[int, int]] = {}
    for t in tokenize(text).tokens:
        if t.surface.isalpha() and len(t.surface) > 3:
            first.setdefault(t.surface, (t.start, t.end))
    return text, [first[w] for w in sorted(first, key=lambda w: (-len(w), w))[:5]]


def make_synthetic_kb(
    n_aliases: int, n_concepts: int, seed: int = 0
) -> KnowledgeBase:
    """KB with exactly n_aliases distinct surfaces over n_concepts."""
    rng = random.Random(seed)
    surfaces: list[str] = []
    seen = set()
    while len(surfaces) < n_aliases:
        a = synth_alias(rng)
        if a not in seen:
            seen.add(a)
            surfaces.append(a)
    from bioling.kb import Concept

    concepts = {}
    per_concept = len(surfaces) / n_concepts
    pos = 0
    for i in range(n_concepts):
        cid = f"C{i:07d}"
        take = max(1, round(per_concept * (i + 1)) - round(per_concept * i))
        aliases = list(surfaces[pos:pos + take]) or [surfaces[pos % len(surfaces)]]
        pos += take
        # every so often, share an alias with the previous concept
        if i % 97 == 1 and pos > take + 1:
            aliases.append(surfaces[pos - take - 1])
        concepts[cid] = Concept(cid, aliases[0], tuple(aliases))
    return KnowledgeBase(concepts)


@pytest.fixture(scope="session")
def toy_kb_path(tmp_path_factory):
    """3-concept KB mirroring the shared-alias situation: 'cancer' names
    lung cancer, breast cancer, and a third concept."""
    lines = [
        {"concept_id": "C01", "canonical_name": "Lung Cancer",
         "aliases": ["cancer", "lung carcinoma", "pulmonary cancer"],
         "types": ["T191"], "definition": "a lung neoplasm"},
        {"concept_id": "C02", "canonical_name": "Breast Cancer",
         "aliases": ["cancer", "mammary carcinoma"],
         "types": ["T191"], "definition": None},
        {"concept_id": "C03", "canonical_name": "Cancer",
         "aliases": ["malignant neoplasm", "tumor"],
         "types": ["T191"], "definition": None},
        {"concept_id": "C04", "canonical_name": "Heat Shock Protein",
         "aliases": ["HSP", "heat shock proteins"],
         "types": ["T116"], "definition": None},
        {"concept_id": "C05", "canonical_name": "Interleukin-2",
         "aliases": ["IL-2", "interleukin 2"],
         "types": ["T116"], "definition": None},
    ]
    path = tmp_path_factory.mktemp("kb") / "toy_kb.jsonl"
    with open(path, "w") as fp:
        for line in lines:
            fp.write(json.dumps(line) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def toy_kb(toy_kb_path):
    return load_kb(toy_kb_path)


@pytest.fixture(scope="session")
def toy_index(toy_kb):
    vec = NgramVectorizer.fit(toy_kb.alias_surfaces(), min_df=1)
    return build_index(toy_kb, vec)


@pytest.fixture(scope="session")
def synth_kb():
    return make_synthetic_kb(10_000, 4_000, seed=42)


@pytest.fixture(scope="session")
def synth_index(synth_kb):
    vec = NgramVectorizer.fit(synth_kb.alias_surfaces(), min_df=10)
    return build_index(synth_kb, vec)


class BruteForceOracle:
    """Independent search oracle: the query is scored against every alias
    via a scipy sparse matrix product, ranked (score desc, alias asc),
    zero scores dropped. Built once per index from the public `encode` of
    each alias, so it shares no data with the index's CSR arrays or its
    inverted-index scoring path."""

    def __init__(self, index):
        import scipy.sparse as sp

        n = len(index.aliases)
        vocab = index.vectorizer.vocab_size
        rows, cols, data = [], [], []
        vectors = [index.vectorizer.encode(a) for a in index.aliases]
        for i, vec in enumerate(vectors):
            rows.extend([i] * len(vec.indices))
            cols.extend(int(c) for c in vec.indices)
            data.extend(float(w) for w in vec.weights)
        self.matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, vocab))
        self.aliases = list(index.aliases)
        order = sorted(range(n), key=lambda i: self.aliases[i])
        self.alias_rank = np.empty(n, dtype=np.int64)
        for rank, row in enumerate(order):
            self.alias_rank[row] = rank
        self.vocab = vocab
        self._sp = sp

    def top_k(self, query, k):
        if query.is_zero:
            return []
        q = self._sp.csr_matrix(
            ([float(w) for w in query.weights],
             ([0] * len(query.indices), [int(c) for c in query.indices])),
            shape=(1, self.vocab),
        )
        scores = np.asarray((self.matrix @ q.T).todense()).ravel()
        order = np.lexsort((self.alias_rank, -scores))
        return [
            (self.aliases[int(i)], float(scores[int(i)]))
            for i in order[:k] if scores[int(i)] > 0.0
        ]


# -- oracles and helpers ----------------------------------------------------
# Second opinions the differential tests compare the library against, none
# sharing code with the path it checks, and views the library has no use for.

def check_match(short_form: str, long_form: str) -> bool:
    """Whether a long form covers its short form: each alphanumeric
    character of the short form, right to left, is found in the long form
    moving leftward. A second opinion on the matcher in `bioling.abbrev`."""
    pos = len(long_form)
    for c in reversed(short_form.lower()):
        if not c.isalnum():
            continue
        found = long_form.lower().rfind(c, 0, pos)
        if found < 0:
            return False
        pos = found
    return True


def reference_innermost_parens(text: str, start: int, end: int) -> list[tuple[int, int]]:
    """The parentheticals `abbrev._PAREN_RE` matches, by a per-character
    loop with a stack: (open, close) offsets of parentheticals in
    text[start:end] with no nested pair inside, in order of their closing
    parenthesis."""
    pairs = []
    stack = []
    for i in range(start, end):
        c = text[i]
        if c == "(":
            stack.append(i)
        elif c == ")" and stack:
            lp = stack.pop()
            if not any(lp < p[0] and p[1] < i for p in pairs):
                pairs.append((lp, i))
    return pairs


_WORD_RE = re.compile(r"\S+")
_PARENS_RE = re.compile(r"[()]")


def _innermost_parens(text: str, start: int, end: int) -> list[tuple[int, int]]:
    """(open, close) offsets of parentheticals with no nested pair inside."""
    pairs = []
    stack = []
    for m in _PARENS_RE.finditer(text, start, end):
        i = m.start()
        if m.group() == "(":
            stack.append(i)
        elif stack:
            lp = stack.pop()
            if not any(lp < p[0] and p[1] < i for p in pairs):
                pairs.append((lp, i))
    return pairs


def _window_before(text: str, region_start: int, lp: int, max_words: int) -> int:
    """Start offset of the up-to-max_words words preceding offset lp."""
    words = list(_WORD_RE.finditer(text, region_start, lp))
    if not words:
        return lp
    return words[max(0, len(words) - max_words)].start()


def reference_best_long_form_start(short_form: str, window: str) -> int | None:
    """`abbrev._best_long_form_start` by its earlier loop, which lowers each
    character as it compares it."""
    s = len(short_form) - 1
    l = len(window) - 1
    while s >= 0:
        c = short_form[s].lower()
        if not c.isalnum():
            s -= 1
            continue
        while l >= 0 and (
            window[l].lower() != c
            or (s == 0 and l > 0 and window[l - 1].isalnum())
        ):
            l -= 1
        if l < 0:
            return None
        s -= 1
        l -= 1
    return l + 1


def _extract_pair(text: str, sf_start: int, sf_end: int,
                  window_start: int, window_end: int) -> AbbreviationPair | None:
    """`abbrev._extract_pair` with `reference_best_long_form_start`."""
    short_form = text[sf_start:sf_end]
    window = text[window_start:window_end].rstrip()
    lf_rel = reference_best_long_form_start(short_form, window)
    if lf_rel is None:
        return None
    long_form = window[lf_rel:]
    if not _validate_pair(short_form, long_form):
        return None
    lf_start = window_start + lf_rel
    return AbbreviationPair(MentionSpan(sf_start, sf_end, short_form),
                            MentionSpan(lf_start, lf_start + len(long_form), long_form))


def reference_find_abbreviations(doc: Document) -> list[AbbreviationPair]:
    """`abbrev.find_abbreviations` by its earlier candidate search: a
    parenthesis stack, each content stripped and located by slicing, and
    the words before a parenthetical listed once per pattern."""
    if doc.sentences:
        regions = [doc.sentence_char_span(s) for s in doc.sentences]
    else:
        regions = [(0, len(doc.text))]

    pairs: list[AbbreviationPair] = []
    for region_start, region_end in regions:
        for lp, rp in sorted(_innermost_parens(doc.text, region_start, region_end)):
            content = doc.text[lp + 1:rp].strip()
            if not content:
                continue
            c_start = lp + 1 + (len(doc.text[lp + 1:rp]) - len(doc.text[lp + 1:rp].lstrip()))
            c_end = c_start + len(content)
            if _is_valid_short_form(content):
                wstart = _window_before(
                    doc.text, region_start, lp, _max_long_form_words(content)
                )
                pair = _extract_pair(doc.text, c_start, c_end, wstart, lp)
                if pair is not None:
                    pairs.append(pair)
                continue
            # mirrored pattern: the token before the parenthesis is the
            # short form, the parenthetical holds the definition
            words = list(_WORD_RE.finditer(doc.text, region_start, lp))
            if not words:
                continue
            prev = words[-1]
            candidate = prev.group().rstrip(".,;:")
            if _is_valid_short_form(candidate):
                pair = _extract_pair(
                    doc.text,
                    prev.start(), prev.start() + len(candidate),
                    c_start, c_end,
                )
                if pair is not None:
                    pairs.append(pair)
    return pairs


_REF_NUM_LIST_RE = re.compile(r"[0-9][0-9,;–—-]*\Z")
_REF_YEAR_RE = re.compile(r"(1[6-9]|20)\d\d[a-z]?\Z")


def reference_bracket_citation(surfaces, j: int) -> int | None:
    """The earlier bracket matcher: "[ 1,2 ]" at token j; index past "]"."""
    n = len(surfaces)
    if j >= n or surfaces[j] != "[":
        return None
    i = j + 1
    saw_number = False
    while i < n and _REF_NUM_LIST_RE.fullmatch(surfaces[i]):
        saw_number = True
        i += 1
    if saw_number and i < n and surfaces[i] == "]":
        return i + 1
    return None


def reference_author_year_citation(surfaces, j: int) -> int | None:
    """The earlier author-year matcher: "( Name et al. , 2002 )"; index past ")"."""
    n = len(surfaces)
    if j >= n or surfaces[j] != "(":
        return None
    for close in range(j + 2, min(j + 10, n)):
        if surfaces[close] == ")":
            content = surfaces[j + 1:close]
            if not content:
                return None
            first, last = content[0], content[-1]
            if first[:1].isalpha() and first[:1].isupper() and _REF_YEAR_RE.fullmatch(last):
                return close + 1
            return None
        if surfaces[close] == "(":
            return None
    return None


def reference_segment(doc: Document, cfg: SegmenterConfig) -> Document:
    """`segment` by its earlier loop, which visits every token in turn, with
    its own copies of the earlier citation matchers."""
    surfaces = [t.surface for t in doc.tokens]
    n = len(surfaces)
    if n == 0:
        return doc.with_sentences(())
    boundaries: list[int] = []
    depth = 0
    i = 0
    while i < n:
        s = surfaces[i]
        if s in segmenter._OPENERS:
            depth += 1
            i += 1
            continue
        if s in segmenter._CLOSERS:
            depth = max(0, depth - 1)
            i += 1
            continue
        prev = surfaces[i - 1] if i > 0 else None
        if depth == 0 and segmenter._is_boundary_token(s, prev, cfg.stoplist):
            end = i
            j = i + 1
            matched = True
            while matched and j < n:
                matched = False
                for enabled, matcher in (
                    (cfg.cite_bracket, reference_bracket_citation),
                    (cfg.cite_author_year, reference_author_year_citation),
                ):
                    if enabled:
                        nxt = matcher(surfaces, j)
                        if nxt is not None:
                            end = nxt - 1
                            j = nxt
                            matched = True
                            break
            if j >= n or segmenter._CONFIRM_RE.match(surfaces[j]):
                boundaries.append(end)
            i = end + 1
            continue
        i += 1
    if not boundaries or boundaries[-1] != n - 1:
        boundaries.append(n - 1)
    firsts = [0] + [last + 1 for last in boundaries[:-1]]
    return doc.with_sentences(map(SentenceSpan, firsts, boundaries))


def dot(a: SparseVector, b: SparseVector) -> float:
    """The dot product of two sparse vectors, by a merge of their sorted
    indices rather than the index's posting-list accumulation."""
    i = j = 0
    total = 0.0
    while i < len(a.indices) and j < len(b.indices):
        if a.indices[i] == b.indices[j]:
            total += a.weights[i] * b.weights[j]
            i += 1
            j += 1
        elif a.indices[i] < b.indices[j]:
            i += 1
        else:
            j += 1
    return total


def reference_encode(vec: NgramVectorizer, s: str) -> SparseVector:
    """`NgramVectorizer.encode` by its earlier loop: a `Counter` of the grams
    of each padded word, (gram id, count) pairs for the grams in the
    vocabulary, sorted, and arrays filled from generators."""
    counts: Counter = Counter()
    for word in s.lower().split():
        padded = f" {word} "
        for i in range(len(padded) - 2):
            counts[padded[i:i + 3]] += 1
    pairs = sorted((vec.vocabulary[g], tf) for g, tf in counts.items() if g in vec.vocabulary)
    if not pairs:
        return zero_vector()
    indices = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=len(pairs))
    tf = np.fromiter((p[1] for p in pairs), dtype=np.float64, count=len(pairs))
    weights = tf * vec.idf[indices]
    weights /= math.sqrt(float(np.dot(weights, weights)))
    return SparseVector(indices, weights)


def reference_fan_out(index, hits: list[tuple[str, float]]) -> tuple[Candidate, ...]:
    """`linker.fan_out` by its earlier rules: the first (cosine, alias) seen
    per concept id, then one sort keyed by (-cosine, concept id)."""
    best: dict[str, tuple[float, str]] = {}
    for alias, sim in hits:
        for cid in index.alias_table[alias]:
            best.setdefault(cid, (sim, alias))
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return tuple(Candidate(cid, alias, sim) for cid, (sim, alias) in ranked)


def index_row(index, i: int) -> SparseVector:
    """The vector of alias row i, gathered from every posting list that holds
    the row. This scans all postings."""
    at = np.flatnonzero(index.post_rows == i)
    # entries are in gram order, so the gram ids come out increasing
    grams = np.searchsorted(index.post_ptr, at, side="right") - 1
    return SparseVector(grams.astype(np.int32), index.post_weights[at])


def reference_csr(vec: NgramVectorizer, texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`encode` of every text as one CSR matrix (`indptr`, `indices`,
    `weights`), one `encode` call per row."""
    vectors = [vec.encode(t) for t in texts]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([len(v.indices) for v in vectors], dtype=np.int64, out=indptr[1:])
    indices = np.concatenate([np.empty(0, np.int32)] + [v.indices for v in vectors])
    weights = np.concatenate([np.empty(0)] + [v.weights for v in vectors])
    return indptr, indices, weights


def cjk_kb(n_aliases: int = 17_000) -> KnowledgeBase:
    """Aliases of one 4-character CJK word, each position a different
    permutation of 20,992 code points, so that nearly every gram is new:
    over 65,536 grams at min_df=1."""
    words = ["".join(chr(0x4E00 + m * i % 20_992) for m in (1, 7, 11, 13))
             for i in range(n_aliases)]
    return KnowledgeBase({f"J{i}": Concept(f"J{i}", w, (w,)) for i, w in enumerate(words)})


def reference_alias_keys(kb: KnowledgeBase) -> dict[str, frozenset[str]]:
    """Each normalized alias key, in order of first appearance, with the ids
    of the concepts that have it, grouped one (concept, alias) pair at a
    time: the alias table `KnowledgeBase` once kept."""
    table: dict[str, set[str]] = {}
    for concept in kb.concepts.values():
        for alias in concept.aliases:
            table.setdefault(normalize_alias(alias), set()).add(concept.concept_id)
    return {key: frozenset(ids) for key, ids in table.items()}


def reference_alias_rows(kb: KnowledgeBase) -> dict[str, tuple[str, ...]]:
    """`KnowledgeBase.alias_table` by earlier rules: each key's smallest
    surface from a sort of every surface, in that order, with the key's ids
    from `reference_alias_keys`, sorted."""
    keys = reference_alias_keys(kb)
    smallest: dict[str, str] = {}
    for alias in sorted(kb.alias_surfaces()):
        smallest.setdefault(normalize_alias(alias), alias)
    return {alias: tuple(sorted(keys[key])) for key, alias in smallest.items()}


def reference_build_index(kb: KnowledgeBase, vectorizer: NgramVectorizer) -> AliasIndex:
    """`build_index` by its earlier rules: the rows of `reference_alias_rows`,
    and the postings from `encode`'s rows by a stable argsort of the `int32`
    gram ids."""
    alias_table = reference_alias_rows(kb)
    indptr, indices, weights = reference_csr(vectorizer, alias_table)
    by_gram = np.argsort(indices, kind="stable")
    post_rows = np.repeat(np.arange(len(alias_table)), np.diff(indptr))[by_gram]
    post_ptr = np.zeros(vectorizer.vocab_size + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=vectorizer.vocab_size), out=post_ptr[1:])
    return AliasIndex(alias_table, post_ptr, post_rows, weights[by_gram], vectorizer)


def fitted_state(vec: NgramVectorizer) -> tuple:
    """What a fitted vectorizer is: its gram codes, document frequencies,
    training-set size and `min_df`. Equal states encode alike."""
    return vec.codes.tolist(), vec.df.tolist(), vec.n_docs, vec.min_df


def stand_in(index, **changes):
    """An object `save_index` writes like `index`, with some fields replaced."""
    return SimpleNamespace(**{**vars(index), **changes})


def _set(arr, i, value):
    out = np.array(arr)
    out[i] = value
    return out


def _with_vec(ix, **changes):
    """A stand-in for `ix` whose vectorizer has some fields replaced; unlike
    `NgramVectorizer`, it takes any codes and df."""
    v = ix.vectorizer
    fields = {"codes": v.codes, "df": v.df, "n_docs": v.n_docs, "min_df": v.min_df,
              **changes}
    return stand_in(ix, vectorizer=SimpleNamespace(**fields))


def _with_ids(ix, ids):
    """A stand-in for `ix` whose first row has the concept ids `ids`."""
    return stand_in(ix, alias_table={**ix.alias_table, ix.aliases[0]: ids})


def _first_two(items, i, j):
    """`items` with its first two entries replaced by entries i and j."""
    return [items[i], items[j], *items[2:]]


def _with_rows(ix, i, j):
    """A stand-in for `ix` whose first posting list of two or more rows has
    its first two rows replaced by its rows i and j."""
    lo = int(ix.post_ptr[np.argmax(np.diff(ix.post_ptr) >= 2)])
    return stand_in(ix, post_rows=_set(ix.post_rows, [lo, lo + 1], ix.post_rows[[lo + i, lo + j]]))


# the arrays of a version 4 file, in order, after its 14-byte header
BLIX_ARRAYS = [("codes", "<i8"), ("df", "<i8"), ("alias offsets", "<i8"), ("alias bytes", "u1"),
               ("id ranges", "<i8"), ("id offsets", "<i8"), ("id bytes", "u1"),
               ("post_ptr", "<i8"), ("post_rows", "<i4"), ("post_weights", "<f8")]


def blix_array_starts(raw: bytes) -> dict[str, int]:
    """Where the first element of each array of a .blix file starts."""
    pos, starts = 14, {}
    for name, dtype in BLIX_ARRAYS:
        (n,) = struct.unpack_from("<Q", raw, pos)
        starts[name] = pos + 8
        pos += 8 + n * np.dtype(dtype).itemsize
    return starts


def sealed(body: bytes) -> bytes:
    """`body` with the CRC-32 trailer that a writer gives it."""
    return body + struct.pack("<I", zlib.crc32(body))


def _poke(raw: bytes, array: str, i: int, value: int) -> bytes:
    """`raw`, resealed, with element i of an int64 array set to `value`."""
    body = bytearray(raw[:-4])
    struct.pack_into("<q", body, blix_array_starts(raw)[array] + 8 * i, value)
    return sealed(bytes(body))


# Ways to corrupt a valid .blix file of the toy KB, each with the message
# the reader must reject it with. A case maps (index, file bytes) either to
# new bytes or to a stand-in index that `save_index` writes instead. Both
# carry a valid CRC-32, except where the case is about the CRC or the
# version (read before it), so that each field's own check is reached.
# The postings are a CSC matrix: "indptr" is `post_ptr` and its "indices"
# are `post_rows`.
BLIX_CORRUPTIONS = {
    "indptr length": (lambda ix, raw: stand_in(ix, post_ptr=ix.post_ptr[:-1]),
                      "posting offsets have"),
    "indptr start": (lambda ix, raw: stand_in(ix, post_ptr=ix.post_ptr + 1),
                     "posting offsets must start at 0"),
    "indptr decreases": (
        lambda ix, raw: stand_in(ix, post_ptr=_set(ix.post_ptr, 1, ix.post_ptr[2] + 1)),
        "never decrease"),
    "indptr end vs indices": (
        lambda ix, raw: stand_in(ix, post_rows=ix.post_rows[:-1]),
        "posting offsets must start at 0, never decrease and end at"),
    "indptr end vs weights": (
        lambda ix, raw: stand_in(ix, post_weights=ix.post_weights[:-1]),
        "posting rows but"),
    "alias row too large": (
        lambda ix, raw: stand_in(ix, post_rows=_set(ix.post_rows, 0, len(ix) + 5)),
        "posting row outside"),
    "alias row negative": (
        lambda ix, raw: stand_in(ix, post_rows=_set(ix.post_rows, 0, -1)),
        "posting row outside"),
    "alias row repeated in a posting list": (
        lambda ix, raw: _with_rows(ix, 0, 0), "strictly increasing within a posting list"),
    "alias rows descending in a posting list": (
        lambda ix, raw: _with_rows(ix, 1, 0), "strictly increasing within a posting list"),
    "weight negative": (
        lambda ix, raw: stand_in(ix, post_weights=_set(ix.post_weights, 0, -0.5)),
        "finite and non-negative"),
    "weight NaN": (
        lambda ix, raw: stand_in(ix, post_weights=_set(ix.post_weights, 0, np.nan)),
        "finite and non-negative"),
    "weight infinite": (
        lambda ix, raw: stand_in(ix, post_weights=_set(ix.post_weights, 0, np.inf)),
        "finite and non-negative"),
    "gram repeated": (
        lambda ix, raw: _with_vec(ix, codes=_first_two(ix.vectorizer.codes, 0, 0)),
        "gram codes must be strictly increasing"),
    "grams unsorted": (
        lambda ix, raw: _with_vec(ix, codes=_first_two(ix.vectorizer.codes, 1, 0)),
        "gram codes must be strictly increasing"),
    # the first code, so the codes stay increasing
    "gram code negative": (
        lambda ix, raw: _with_vec(ix, codes=_set(ix.vectorizer.codes, 0, -1)),
        "3 Unicode scalar values"),
    # the last code, above every other
    "gram field above U+10FFFF": (
        lambda ix, raw: _with_vec(ix, codes=_set(ix.vectorizer.codes, -1, 0x110000 << 42)),
        "3 Unicode scalar values"),
    "gram field a surrogate": (
        lambda ix, raw: _with_vec(
            ix, codes=_set(ix.vectorizer.codes, -1, 0x10FFFF << 42 | 0xD800)),
        "3 Unicode scalar values"),
    "df length": (lambda ix, raw: _with_vec(ix, df=ix.vectorizer.df[:-1]),
                  "document frequencies for"),
    "df negative": (
        lambda ix, raw: _with_vec(ix, df=np.full_like(ix.vectorizer.df, -5)),
        "document frequencies must lie"),
    "df above n_docs": (
        lambda ix, raw: _with_vec(ix, df=_set(ix.vectorizer.df, 0, ix.vectorizer.n_docs + 1)),
        "document frequencies must lie"),
    "df below min_df": (
        lambda ix, raw: _with_vec(ix, min_df=int(ix.vectorizer.df.min()) + 1),
        "document frequencies must lie"),
    "aliases unsorted": (
        lambda ix, raw: stand_in(ix, aliases=_first_two(ix.aliases, 1, 0)),
        "aliases must be strictly increasing"),
    "alias repeated": (
        lambda ix, raw: stand_in(ix, aliases=_first_two(ix.aliases, 0, 0)),
        "aliases must be strictly increasing"),
    "alias offsets decrease": (
        lambda ix, raw: _poke(raw, "alias offsets", 1, -1),
        "alias offsets must start at 0, never decrease"),
    "alias offsets end past the text": (
        lambda ix, raw: _poke(raw, "alias offsets", len(ix), 10**6),
        "alias offsets must start at 0, never decrease"),
    "concept id offsets decrease": (
        lambda ix, raw: _poke(raw, "id offsets", 1, -1),
        "concept id offsets must start at 0, never decrease"),
    "concept id ranges end past the ids": (
        lambda ix, raw: _poke(raw, "id ranges", len(ix), 10**6),
        "per-row concept id offsets must start at 0, never decrease"),
    "alias without concept id": (
        lambda ix, raw: _with_ids(ix, ()), "alias 'Breast Cancer' needs one or more concept ids"),
    "concept id repeated": (
        lambda ix, raw: _with_ids(ix, ("C01", "C01")), "concept ids, nonempty, sorted and unique"),
    "concept ids unsorted": (
        lambda ix, raw: _with_ids(ix, ("C02", "C01")), "concept ids, nonempty, sorted and unique"),
    "concept id empty": (
        lambda ix, raw: _with_ids(ix, ("", "C02")), "concept ids, nonempty, sorted and unique"),
    "format version 1": (
        lambda ix, raw: raw[:4] + struct.pack("<H", 1) + raw[6:],
        r"unsupported format version 1 \(expected 4\); rebuild the index"),
    "format version 2": (
        lambda ix, raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
        r"unsupported format version 2 \(expected 4\); rebuild the index"),
    "CRC mismatch": (lambda ix, raw: raw[:-1] + bytes([raw[-1] ^ 1]), "CRC-32 mismatch"),
    "trailing bytes": (lambda ix, raw: sealed(raw[:-4] + b"\x00"), "trailing"),
    "invalid UTF-8 in alias": (
        lambda ix, raw: sealed(raw[:-4].replace(b"Lung", b"Lun\xff", 1)), "UTF-8"),
    "invalid UTF-8 in concept id": (
        lambda ix, raw: sealed(raw[:-4].replace(b"C01", b"C0\xff", 1)), "UTF-8"),
}


def write_corrupt_blix(index, case: str, path: str) -> str:
    """Write `index` to `path` corrupted as BLIX_CORRUPTIONS[case] says;
    return the pattern the reader's error message must match."""
    save_index(index, path)
    corrupt, match = BLIX_CORRUPTIONS[case]
    bad = corrupt(index, pathlib.Path(path).read_bytes())
    if isinstance(bad, bytes):
        pathlib.Path(path).write_bytes(bad)
    else:
        save_index(bad, path)
    return match
