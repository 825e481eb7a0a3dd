import json
import pathlib
import random
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from bioling.index import build_index, save_index
from bioling.kb import KnowledgeBase, load_kb
from bioling.vectorizer import NgramVectorizer

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
    from bioling.kb import Concept, normalize_alias

    concepts = {}
    table: dict[str, set[str]] = {}
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
        concept = Concept(cid, aliases[0], tuple(aliases))
        concepts[cid] = concept
        for a in concept.aliases:
            table.setdefault(normalize_alias(a), set()).add(cid)
    return KnowledgeBase(concepts, {k: frozenset(v) for k, v in table.items()})


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
            rows.extend([i] * vec.nnz)
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
             ([0] * query.nnz, [int(c) for c in query.indices])),
            shape=(1, self.vocab),
        )
        scores = np.asarray((self.matrix @ q.T).todense()).ravel()
        order = np.lexsort((self.alias_rank, -scores))
        return [
            (self.aliases[int(i)], float(scores[int(i)]))
            for i in order[:k] if scores[int(i)] > 0.0
        ]


def stand_in(index, **changes):
    """An object `save_index` writes like `index`, with some fields replaced."""
    return SimpleNamespace(**{**vars(index), **changes})


def _set(arr, i, value):
    out = np.array(arr)
    out[i] = value
    return out


def _with_vec(ix, **changes):
    """A stand-in for `ix` whose vectorizer has some fields replaced; unlike
    `NgramVectorizer`, it takes any grams and df."""
    v = ix.vectorizer
    fields = {"grams": v.grams, "df": v.df, "n_docs": v.n_docs, "min_df": v.min_df,
              **changes}
    return stand_in(ix, vectorizer=SimpleNamespace(vocab_size=len(fields["grams"]), **fields))


def _first_two(items, i, j):
    """`items` with its first two entries replaced by entries i and j."""
    return [items[i], items[j], *items[2:]]


# Ways to corrupt a valid .blix file of the toy KB, each with the message
# the reader must reject it with. A case maps (index, file bytes) either to
# new bytes or to a stand-in index that `save_index` writes instead.
BLIX_CORRUPTIONS = {
    "indptr length": (lambda ix, raw: stand_in(ix, indptr=ix.indptr[:-1]),
                      "indptr has"),
    "indptr start": (lambda ix, raw: stand_in(ix, indptr=ix.indptr + 1),
                     "start at 0"),
    "indptr decreases": (
        lambda ix, raw: stand_in(ix, indptr=_set(ix.indptr, 1, ix.indptr[2] + 1)),
        "never decrease"),
    "indptr end vs indices": (
        lambda ix, raw: stand_in(ix, indices=ix.indices[:-1]), "indptr ends"),
    "indptr end vs weights": (
        lambda ix, raw: stand_in(ix, weights=ix.weights[:-1]), "indptr ends"),
    "gram id too large": (
        lambda ix, raw: stand_in(
            ix, indices=_set(ix.indices, 0, ix.vectorizer.vocab_size + 5)),
        "gram id"),
    "gram id negative": (
        lambda ix, raw: stand_in(ix, indices=_set(ix.indices, 0, -1)), "gram id"),
    "gram id repeated in a row": (
        lambda ix, raw: stand_in(ix, indices=_set(ix.indices, 1, ix.indices[0])),
        "strictly increasing"),
    "gram ids descending in a row": (
        lambda ix, raw: stand_in(ix, indices=_set(ix.indices, [0, 1], ix.indices[[1, 0]])),
        "strictly increasing"),
    "weight negative": (
        lambda ix, raw: stand_in(ix, weights=_set(ix.weights, 0, -0.5)),
        "finite and non-negative"),
    "weight NaN": (
        lambda ix, raw: stand_in(ix, weights=_set(ix.weights, 0, np.nan)),
        "finite and non-negative"),
    "weight infinite": (
        lambda ix, raw: stand_in(ix, weights=_set(ix.weights, 0, np.inf)),
        "finite and non-negative"),
    "gram repeated": (
        lambda ix, raw: _with_vec(ix, grams=_first_two(ix.vectorizer.grams, 0, 0)),
        "grams must be strictly increasing"),
    "grams unsorted": (
        lambda ix, raw: _with_vec(ix, grams=_first_two(ix.vectorizer.grams, 1, 0)),
        "grams must be strictly increasing"),
    # a proper prefix sorts first, so the grams stay in order
    "gram not 3 characters": (
        lambda ix, raw: _with_vec(ix, grams=[ix.vectorizer.grams[0][:2],
                                             *ix.vectorizer.grams[1:]]),
        "3 code points"),
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
    "format version 1": (
        lambda ix, raw: raw[:4] + struct.pack("<H", 1) + raw[6:],
        r"unsupported format version 1 \(expected 2\); rebuild the index"),
    "trailing bytes": (lambda ix, raw: raw + b"\x00", "trailing"),
    # the first gram's bytes start after magic, version, three u32 and its length
    "invalid UTF-8 in gram": (lambda ix, raw: raw[:22] + b"\xff" + raw[23:], "UTF-8"),
    "invalid UTF-8 in alias": (
        lambda ix, raw: raw.replace(b"Lung", b"Lun\xff", 1), "UTF-8"),
    "invalid UTF-8 in concept id": (
        lambda ix, raw: raw.replace(b"C01", b"C0\xff", 1), "UTF-8"),
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
