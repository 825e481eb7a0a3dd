"""Character-3-gram TF-IDF encoding of alias and mention strings.

Each whitespace-delimited word is padded with single spaces (" word ")
and slid with a window of 3, so short tokens still produce grams and no
gram crosses a word boundary. Grams kept in the vocabulary must appear
in at least `min_df` distinct training strings (default 10). Weights are
raw term count times smoothed idf, ln((1+N)/(1+df)) + 1, L2-normalized.

`encode` serves single queries through `extract_3grams`. `fit` and
`encode_csr` (which `build_index` calls) compute the same grams for
many strings at once over arrays: each string becomes
" " + " ".join(words) + " ", all of them are concatenated and read as
one UTF-32 code-point array, and every window of 3 code points is packed
into one int64, cp0 << 42 | cp1 << 21 | cp2 (21 bits hold any code
point). For 3-gram strings this order is the `str` order, so the sorted
vocabulary is sorted codes too, and a gram's id is the position of its
code. Windows whose middle code point is a space are dropped; that also
drops every window that crosses from one string into the next, since
each padded string starts and ends with a space. Strings go through in
chunks of `_CHUNK`, since a chunk's temporary arrays take tens of bytes
per character: on a 100k-alias KB, chunks of 65,536 strings raised the
peak resident memory of `fit` plus `build_index` from 280 to 305 MB and
were no faster.

`encode_csr` gives every row the bits `encode` gives. Its squared norms
come from the same `np.dot`, one call per row (~0.12 s per 100k rows);
the square root and the division are correctly rounded, so doing those
over whole arrays changes no bit. A vectorized sum of squares
(`bincount`) adds in another order and differed by up to one ulp in
about a quarter of the weights, which would change `.blix` bytes and
make `index.row(i)` differ from `encode(alias)`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MIN_DF = 10

# strings per chunk in `fit` and `encode_csr`; bounds their temporary arrays
_CHUNK = 4096
_CP_BITS = 21
_CP_MASK = (1 << _CP_BITS) - 1
_SPACE = ord(" ")


def extract_3grams(s: str) -> Counter:
    """Multiset of word-boundary-aware character 3-grams of the string."""
    grams: Counter = Counter()
    for word in s.lower().split():
        padded = f" {word} "
        for i in range(len(padded) - 2):
            grams[padded[i:i + 3]] += 1
    return grams


def _pack(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """int64 codes of the 3-grams with these code points, in `str` order."""
    return (c0 << (2 * _CP_BITS)) | (c1 << _CP_BITS) | c2


def _code_points(s: str) -> np.ndarray:
    # surrogatepass: a lone surrogate is one code point, never an error
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)


def _chunk_grams(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3-grams of each text, as `extract_3grams` counts them: `grams`
    holds the distinct codes, sorted, and occurrence j is gram
    `grams[gram_of[j]]` of text `rows[j]`."""
    padded = [" " + " ".join(t.lower().split()) + " " for t in texts]
    cp = _code_points("".join(padded))
    lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
    rows = np.repeat(np.arange(len(padded)), lengths)
    keep = cp[1:-1] != _SPACE
    codes = _pack(cp[:-2], cp[1:-1], cp[2:])[keep]
    grams, gram_of = np.unique(codes, return_inverse=True)
    return grams, gram_of, rows[1:-1][keep]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array.

    Sorting and comparing neighbours stands in for `np.unique`, which
    without a `return_*` argument hashes, several times more slowly."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


@dataclass(frozen=True)
class SparseVector:
    """Unit-normalized sparse vector; indices strictly increasing."""
    indices: np.ndarray  # int32
    weights: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def is_zero(self) -> bool:
        return len(self.indices) == 0

    def dot(self, other: "SparseVector") -> float:
        i = j = 0
        total = 0.0
        a_idx, a_w = self.indices, self.weights
        b_idx, b_w = other.indices, other.weights
        while i < len(a_idx) and j < len(b_idx):
            if a_idx[i] == b_idx[j]:
                total += a_w[i] * b_w[j]
                i += 1
                j += 1
            elif a_idx[i] < b_idx[j]:
                i += 1
            else:
                j += 1
        return total


_ZERO = None


def zero_vector() -> SparseVector:
    global _ZERO
    if _ZERO is None:
        _ZERO = SparseVector(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
    return _ZERO


class NgramVectorizer:
    """Fitted 3-gram vocabulary with document frequencies and idf weights.

    The grams must be sorted, unique and 3 code points long, as `fit`
    makes them; the constructor trusts this and `load_index` checks it.
    """

    def __init__(self, grams: Sequence[str], df: np.ndarray, n_docs: int, min_df: int):
        self.grams = list(grams)
        self.vocabulary = {g: i for i, g in enumerate(self.grams)}
        self.df = np.asarray(df, dtype=np.int64)
        self.n_docs = n_docs
        self.min_df = min_df
        self.idf = np.log((1.0 + n_docs) / (1.0 + self.df)) + 1.0
        # the gram codes in id order, which is sorted order, so a code's
        # `searchsorted` position is its gram id; a sentinel above every
        # code keeps those positions in bounds
        cp = _code_points("".join(self.grams)).reshape(-1, 3)
        self._codes = np.append(_pack(cp[:, 0], cp[:, 1], cp[:, 2]),
                                np.iinfo(np.int64).max)

    @property
    def vocab_size(self) -> int:
        return len(self.grams)

    @classmethod
    def fit(cls, corpus: Iterable[str], min_df: int = DEFAULT_MIN_DF) -> "NgramVectorizer":
        """Fit on a corpus of alias strings; df counts distinct strings."""
        texts = list(corpus)
        if not texts:
            raise ValueError("empty training corpus")
        # per chunk: its distinct grams and how many of its texts hold each
        chunk_grams, chunk_df = [], []
        for lo in range(0, len(texts), _CHUNK):
            grams, gram_of, rows = _chunk_grams(texts[lo:lo + _CHUNK])
            pairs = np.sort(rows * len(grams) + gram_of)
            chunk_grams.append(grams)
            chunk_df.append(np.bincount(pairs[_run_starts(pairs)] % len(grams),
                                        minlength=len(grams)))
        codes = np.concatenate(chunk_grams)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = _run_starts(codes)
        df = np.add.reduceat(np.concatenate(chunk_df)[order], starts)
        kept = df >= min_df
        if not kept.any():
            raise ValueError("no grams survive min_df")
        kept_grams = [
            chr(c >> (2 * _CP_BITS)) + chr((c >> _CP_BITS) & _CP_MASK) + chr(c & _CP_MASK)
            for c in codes[starts][kept].tolist()
        ]
        return cls(kept_grams, df[kept], len(texts), min_df)

    def encode_csr(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`encode` of every text as one CSR matrix (`indptr`, `indices`,
        `weights`): row i holds the bits of `encode(texts[i])`."""
        vocab_size = self.vocab_size
        nnz, indices, weights = [], [], []
        for lo in range(0, len(texts), _CHUNK):
            chunk = texts[lo:lo + _CHUNK]
            grams, gram_of, rows = _chunk_grams(chunk)
            pos = np.searchsorted(self._codes, grams)
            ids = np.where(self._codes[pos] == grams, pos, -1)[gram_of]
            known = ids >= 0
            # sorted (text, gram id) keys are CSR order; a key's run is its tf
            keys = np.sort(rows[known] * vocab_size + ids[known])
            starts = _run_starts(keys)
            tf = np.diff(np.append(starts, len(keys)))
            row, gram = np.divmod(keys[starts], vocab_size)
            w = tf * self.idf[gram]
            counts = np.bincount(row, minlength=len(chunk))
            # each row's sum of squares from `np.dot`, as `encode` takes it
            ptr = np.cumsum(counts).tolist()
            w /= np.repeat(np.sqrt([np.dot(w[a:b], w[a:b]) for a, b in zip([0, *ptr], ptr)]),
                           counts)
            nnz.append(counts)
            indices.append(gram.astype(np.int32))
            weights.append(w)
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.empty(0, np.int64), *nnz]), out=indptr[1:])
        return (indptr, np.concatenate([np.empty(0, np.int32), *indices]),
                np.concatenate([np.empty(0), *weights]))

    def encode(self, s: str) -> SparseVector:
        """TF-IDF encode and L2-normalize; all-OOV input gives a zero vector."""
        counts = extract_3grams(s)
        pairs = sorted(
            (self.vocabulary[g], tf) for g, tf in counts.items()
            if g in self.vocabulary
        )
        if not pairs:
            return zero_vector()
        indices = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=len(pairs))
        tf = np.fromiter((p[1] for p in pairs), dtype=np.float64, count=len(pairs))
        weights = tf * self.idf[indices]
        weights /= math.sqrt(float(np.dot(weights, weights)))
        return SparseVector(indices, weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NgramVectorizer)
            and self.grams == other.grams
            and self.n_docs == other.n_docs
            and self.min_df == other.min_df
            and np.array_equal(self.df, other.df)
        )
