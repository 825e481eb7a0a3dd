"""Character-3-gram TF-IDF encoding of alias and mention strings.

Each whitespace-delimited word is padded with single spaces (" word ")
and slid with a window of 3, so short tokens still produce grams and no
gram crosses a word boundary. Grams kept in the vocabulary must appear
in at least `min_df` distinct training strings (default 10). Weights are
raw term count times smoothed idf, ln((1+N)/(1+df)) + 1, L2-normalized.

`encode` serves single queries. `_grams` lists the windows of each padded
word (`extract_3grams` is the `Counter` of that list), one `map` looks each
up in the `vocabulary` dict, and a `Counter` over the ids, with the `None`
of out-of-vocabulary grams popped, gives the term counts; the arrays are
filled from the sorted (id, count) pairs with `np.fromiter`. `fit` and
`encode_csc` (which `build_index` calls) compute the same grams for
many strings at once over arrays: each string becomes
" " + " ".join(words) + " ", all of them are concatenated and read as
one UTF-32 code-point array, and every window of 3 code points is packed
into one int64, cp0 << 42 | cp1 << 21 | cp2 (21 bits hold any code
point). For 3-gram strings this order is the `str` order. The vocabulary
is kept, and stored in `.blix`, as these codes in increasing order, and
a gram's id is the position of its code; the gram strings that `encode`
looks up are decoded from the codes. Windows whose middle code point is
a space are dropped; that also drops every window that crosses from one
string into the next, since each padded string starts and ends with a
space. Strings go through in chunks of `_CHUNK`, 512 of them, since a
chunk's temporary arrays take about 90 bytes per character. `fit` folds
each chunk into one running vocabulary, the distinct codes so far in
order and their document frequencies: it adds the counts of the grams
seen before and inserts the new ones in place, so it holds one chunk
and the vocabulary however many chunks there are. On the 10k-alias
synthetic KB of the tests (206k characters) the traced peak of `fit` is
1.1 MB and of `build_index` 5.1 MB, 3.0 MB of it the postings kept.

`encode_csc` gives every row the bits `encode` gives. Its squared norms
come from the same `np.dot`, one call per row (~0.12 s per 100k rows);
the square root and the division are correctly rounded, so doing those
over whole arrays changes no bit. A vectorized sum of squares
(`bincount`) adds in another order and differed by up to one ulp in
about a quarter of the weights, which would change `.blix` bytes and
make an index row differ from `encode(alias)` (`index_row` in
tests/conftest.py gathers a row back from the postings to check this).

`encode_csc` makes the posting lists in two passes over the chunks, so
that no whole-matrix temporary is held beside them. The first keeps of
each chunk only its gram ids and term counts in row order and its rows'
entry counts, each in the smallest type that holds them (3 bytes per
entry below 65,536 grams, against the 16 of the output), and counts each
gram's rows. The second allocates the output once, weights each chunk,
and scatters its entries, stably sorted by gram, to the end of each
gram's list so far.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MIN_DF = 10

# strings per chunk in `fit` and `encode_csc`; bounds their temporary arrays
_CHUNK = 512
_CP_BITS = 21
_CP_MASK = (1 << _CP_BITS) - 1
_SPACE = ord(" ")
_first, _second = itemgetter(0), itemgetter(1)


def _grams(s: str) -> list[str]:
    """The 3-gram windows of each padded word of the lowered string, in order."""
    return [p[i:i + 3] for p in [f" {w} " for w in s.lower().split()]
            for i in range(len(p) - 2)]


def extract_3grams(s: str) -> Counter:
    """Multiset of word-boundary-aware character 3-grams of the string."""
    return Counter(_grams(s))


def gram_code_points(codes: np.ndarray) -> np.ndarray:
    """The code points of packed gram codes, one row of 3 per code."""
    return np.stack([codes >> (2 * _CP_BITS), (codes >> _CP_BITS) & _CP_MASK,
                     codes & _CP_MASK], axis=1)


def _chunk_grams(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3-grams of each text, as `extract_3grams` counts them: `grams`
    holds the distinct codes, sorted, and occurrence j is gram
    `grams[gram_of[j]]` of text `rows[j]`."""
    padded = [" " + " ".join(t.lower().split()) + " " for t in texts]
    # surrogatepass: a lone surrogate is one code point, never an error
    cp = np.frombuffer("".join(padded).encode("utf-32-le", "surrogatepass"),
                       dtype="<u4").astype(np.int64)
    lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
    rows = np.repeat(np.arange(len(padded)), lengths)
    keep = cp[1:-1] != _SPACE
    codes = ((cp[:-2] << (2 * _CP_BITS)) | (cp[1:-1] << _CP_BITS) | cp[2:])[keep]
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
    def is_zero(self) -> bool:
        return len(self.indices) == 0


_ZERO = SparseVector(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))


def zero_vector() -> SparseVector:
    """The all-zero vector: one shared instance, with empty arrays."""
    return _ZERO


class NgramVectorizer:
    """Fitted 3-gram vocabulary with document frequencies and idf weights.

    The vocabulary is `codes`, the packed gram codes in increasing order,
    as `fit` makes them: a gram's id is the position of its code. The
    constructor trusts this and `load_index` checks it.
    """

    def __init__(self, codes: np.ndarray, df: np.ndarray, n_docs: int, min_df: int):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.df = np.asarray(df, dtype=np.int64)
        self.n_docs = n_docs
        self.min_df = min_df
        self.idf = np.log((1.0 + n_docs) / (1.0 + self.df)) + 1.0
        # the gram strings, for `encode`'s dict: the code points of all
        # codes in order, decoded at once and cut every 3 code points
        cp = gram_code_points(self.codes).astype("<u4")
        text = cp.tobytes().decode("utf-32-le", "surrogatepass")
        self.grams = [text[i:i + 3] for i in range(0, len(text), 3)]
        self.vocabulary = dict(zip(self.grams, range(len(self.grams))))

    @property
    def vocab_size(self) -> int:
        return len(self.codes)

    @classmethod
    def fit(cls, corpus: Iterable[str], min_df: int = DEFAULT_MIN_DF) -> "NgramVectorizer":
        """Fit on a corpus of alias strings; df counts distinct strings."""
        texts = list(corpus)
        if not texts:
            raise ValueError("empty training corpus")
        # the running vocabulary: every distinct gram so far, sorted, and how
        # many texts hold it; a sentinel above every code stays last and keeps
        # `searchsorted` positions in bounds
        codes = np.array([np.iinfo(np.int64).max])
        df = np.zeros(1, dtype=np.int64)
        for lo in range(0, len(texts), _CHUNK):
            grams, gram_of, rows = _chunk_grams(texts[lo:lo + _CHUNK])
            pairs = np.sort(rows * len(grams) + gram_of)
            chunk_df = np.bincount(pairs[_run_starts(pairs)] % len(grams), minlength=len(grams))
            # grams seen before add their counts; new ones go in, in order
            pos = np.searchsorted(codes, grams)
            seen = codes[pos] == grams
            df[pos[seen]] += chunk_df[seen]
            new = ~seen
            codes = np.insert(codes, pos[new], grams[new])
            df = np.insert(df, pos[new], chunk_df[new])
        kept = df[:-1] >= min_df
        if not kept.any():
            raise ValueError("no grams survive min_df")
        return cls(codes[:-1][kept], df[:-1][kept], len(texts), min_df)

    def encode_csc(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`encode` of every text as the columns of one CSC matrix, the
        posting lists (`post_ptr`, `post_rows`, `post_weights`): gram g
        occurs in rows `post_rows[post_ptr[g]:post_ptr[g + 1]]`, ascending,
        and row i holds the bits of `encode(texts[i])`."""
        vocab_size = self.vocab_size
        id_type = np.min_scalar_type(vocab_size - 1)
        # a sentinel above every code keeps `searchsorted` positions in bounds
        codes = np.append(self.codes, np.iinfo(np.int64).max)
        # pass 1: each chunk's gram ids and term counts in CSR order, and its
        # rows' entry counts, in the smallest types that hold them
        records: deque[tuple[np.ndarray, np.ndarray, np.ndarray]] = deque()
        col_counts = np.zeros(vocab_size, dtype=np.int64)
        for lo in range(0, len(texts), _CHUNK):
            chunk = texts[lo:lo + _CHUNK]
            grams, gram_of, rows = _chunk_grams(chunk)
            pos = np.searchsorted(codes, grams)
            ids = np.where(codes[pos] == grams, pos, -1)[gram_of]
            known = ids >= 0
            # sorted (text, gram id) keys are CSR order; a key's run is its tf
            keys = np.sort(rows[known] * vocab_size + ids[known])
            starts = _run_starts(keys)
            tf = np.diff(np.append(starts, len(keys)))
            row, gram = np.divmod(keys[starts], vocab_size)
            counts = np.bincount(row, minlength=len(chunk))
            col_counts += np.bincount(gram, minlength=vocab_size)
            records.append((gram.astype(id_type),
                            tf.astype(np.min_scalar_type(tf.max(initial=0))),
                            counts.astype(np.min_scalar_type(counts.max()))))
        # pass 2: weight each chunk's entries and scatter them, by gram, to
        # the end of each gram's list so far; chunks come in row order, so
        # every list stays ascending
        post_ptr = np.zeros(vocab_size + 1, dtype=np.int64)
        np.cumsum(col_counts, out=post_ptr[1:])
        post_rows = np.empty(post_ptr[-1], dtype=np.int64)
        post_weights = np.empty(post_ptr[-1])
        cursor = post_ptr[:-1].copy()
        for lo in range(0, len(texts), _CHUNK):
            gram, tf, counts = records.popleft()
            w = tf * self.idf[gram]
            # each row's sum of squares from `np.dot`, as `encode` takes it
            ptr = np.cumsum(counts).tolist()
            w /= np.repeat(np.sqrt([np.dot(w[a:b], w[a:b]) for a, b in zip([0, *ptr], ptr)]),
                           counts)
            # the stable sort keeps each gram's entries in row order
            by_gram = np.argsort(gram, kind="stable")
            gram = gram[by_gram]
            starts = _run_starts(gram)
            lengths = np.diff(np.append(starts, len(gram)))
            first = gram[starts]
            # entry j of the sorted chunk goes to j + cursor[g] - (start of g's run)
            dest = np.arange(len(gram)) + np.repeat(cursor[first] - starts, lengths)
            cursor[first] += lengths
            post_rows[dest] = np.repeat(np.arange(lo, lo + len(counts)), counts)[by_gram]
            post_weights[dest] = w[by_gram]
        return post_ptr, post_rows, post_weights

    def encode(self, s: str) -> SparseVector:
        """TF-IDF encode and L2-normalize; all-OOV input gives a zero vector."""
        # gram id -> term count; an out-of-vocabulary gram counts as None
        counts = Counter(map(self.vocabulary.get, _grams(s)))
        counts.pop(None, None)
        if not counts:
            return zero_vector()
        pairs = sorted(counts.items())
        indices = np.fromiter(map(_first, pairs), dtype=np.int32, count=len(pairs))
        tf = np.fromiter(map(_second, pairs), dtype=np.float64, count=len(pairs))
        weights = tf * self.idf[indices]
        weights /= math.sqrt(float(np.dot(weights, weights)))
        return SparseVector(indices, weights)
