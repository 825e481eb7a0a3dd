"""Searchable alias index: exact cosine top-k.

Alias vectors are one CSR matrix (`indptr`, `indices`, `weights`), the
same three arrays a `.blix` file stores, from build through disk to
search. The inverted index over gram ids is the CSC transpose of that
matrix, derived on every build and load and never stored. A query's
score against every alias is accumulated from the posting lists of its
grams. Since all weights are non-negative and vectors unit-normalized,
scores are cosines in [0, 1]. Rows are stored in alias order, so the
row number is the tie-break: ties at the same cosine come out
lexicographically by alias string.

Top-k selection never sorts the whole index: zero scores are dropped,
`np.partition` finds the k-th best remaining score, and only the rows
scoring at least that much (so every row tied with it) are sorted, by
score descending with a stable sort over ascending rows.

Surfaces with the same `normalize_alias` key have identical vectors, so
each key has one row: its smallest surface, carrying the key's concept
ids. A top-k slot is thus one alias key.

Persistence: single little-endian binary file, magic "BLIX", format
version 3 (see docs/index-format.md). `save_index` replaces the target
atomically; `load_index` checks the grams, document frequencies, alias
order, concept ids, CSR structure and values, and raises
`IndexFormatError` on any corrupt or older file. Constructors trust
their inputs; the reader checks them.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO

import numpy as np

from .kb import KnowledgeBase, normalize_alias
from .vectorizer import NgramVectorizer, SparseVector

MAGIC = b"BLIX"
FORMAT_VERSION = 3


class IndexFormatError(ValueError):
    """Raised on a corrupt or incompatible serialized index."""


class AliasIndex:
    """Alias rows, each a surface with its sorted concept ids, and their
    vectors as one CSR matrix.

    `alias_table` maps each row's surface to its concept ids, in row order,
    and `aliases` lists its keys: row i of (`indptr`, `indices`, `weights`)
    is the vector of `aliases[i]`; the arrays are used as given, without
    copies. Aliases must be strictly increasing: row order is the tie-break
    order.
    """

    def __init__(
        self,
        alias_table: dict[str, tuple[str, ...]],
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vectorizer: NgramVectorizer,
    ):
        self.alias_table = alias_table
        self.aliases = list(alias_table)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.vectorizer = vectorizer
        # postings: the CSC transpose. The stable sort keeps each gram's
        # rows ascending, the order in which their scores accumulate.
        by_gram = np.argsort(self.indices, kind="stable")
        row_of_entry = np.repeat(np.arange(len(self.aliases)), np.diff(self.indptr))
        self._post_rows = row_of_entry[by_gram]
        self._post_weights = self.weights[by_gram]
        self._post_ptr = np.zeros(vectorizer.vocab_size + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=vectorizer.vocab_size),
                  out=self._post_ptr[1:])

    def __len__(self) -> int:
        return len(self.aliases)

    def row(self, i: int) -> SparseVector:
        """The vector of alias i, as views into the CSR arrays."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector(self.indices[lo:hi], self.weights[lo:hi])

    # -- scoring --------------------------------------------------------

    def _exact_scores(self, query: SparseVector) -> np.ndarray:
        scores = np.zeros(len(self.aliases), dtype=np.float64)
        for gi, w in zip(query.indices, query.weights):
            lo, hi = self._post_ptr[gi], self._post_ptr[gi + 1]
            scores[self._post_rows[lo:hi]] += float(w) * self._post_weights[lo:hi]
        return scores

    def nearest_aliases(self, query: SparseVector, k: int) -> list[tuple[str, float]]:
        """Up to k (alias, cosine) pairs, best first.

        Zero-similarity aliases are never returned, so fewer than k
        results can come back; a zero query vector yields none.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if query.is_zero or not self.aliases:
            return []
        scores = self._exact_scores(query)
        rows = np.flatnonzero(scores > 0.0)
        vals = scores[rows]
        # sort only the rows scoring at least the k-th best, so every row
        # tied with it survives to the tie-break
        if len(rows) > k:
            kth = np.partition(vals, len(rows) - k)[len(rows) - k]
            keep = vals >= kth
            rows, vals = rows[keep], vals[keep]
        # rows are still ascending, i.e. in alias order, and the sort is
        # stable, so tied rows come out in alias order
        rows = rows[np.argsort(-vals, kind="stable")[:k]]
        return [(self.aliases[r], float(scores[r])) for r in rows.tolist()]


def build_index(kb: KnowledgeBase, vectorizer: NgramVectorizer) -> AliasIndex:
    """Index one row per alias key of the KB, in alias order: the smallest
    surface of the key, with the key's concept ids, sorted."""
    # a key enters at its first surface in sorted order, its smallest
    smallest: dict[str, str] = {}
    for alias in sorted(kb.alias_surfaces()):
        smallest.setdefault(normalize_alias(alias), alias)
    alias_table = {alias: tuple(sorted(kb.alias_table[key])) for key, alias in smallest.items()}
    indptr, indices, weights = vectorizer.encode_csr(list(alias_table))
    return AliasIndex(alias_table, indptr, indices, weights, vectorizer)


# -- persistence --------------------------------------------------------

def _write_str(fp: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    fp.write(struct.pack("<I", len(data)))
    fp.write(data)


def _write_array(fp: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    arr = np.asarray(arr, dtype=dtype)
    fp.write(struct.pack("<Q", len(arr)))
    fp.write(arr.tobytes())


def _write_index(fp: BinaryIO, index: AliasIndex) -> None:
    fp.write(MAGIC)
    fp.write(struct.pack("<H", FORMAT_VERSION))
    # vectorizer
    v = index.vectorizer
    fp.write(struct.pack("<III", v.n_docs, v.min_df, v.vocab_size))
    for gram in v.grams:
        _write_str(fp, gram)
    _write_array(fp, v.df, "<i8")
    # alias rows, each with its concept ids
    fp.write(struct.pack("<I", len(index.aliases)))
    for alias in index.aliases:
        _write_str(fp, alias)
        ids = index.alias_table[alias]
        fp.write(struct.pack("<I", len(ids)))
        for cid in ids:
            _write_str(fp, cid)
    # vectors, CSR
    _write_array(fp, index.indptr, "<i8")
    _write_array(fp, index.indices, "<i4")
    _write_array(fp, index.weights, "<f8")


def save_index(index: AliasIndex, path: str) -> None:
    """Write the index to `path` atomically: a temporary file in the same
    directory is renamed over it only once completely written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fp:
            _write_index(fp, index)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    """Bounds-checked cursor over the bytes of a `.blix` file."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, n: int) -> int:
        """Advance past n bytes and return the offset they start at."""
        start = self.pos
        if n > len(self.data) - start:
            raise IndexFormatError("unexpected end of file")
        self.pos = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<I")
        start = self.skip(n)
        try:
            return self.data[start:start + n].decode("utf-8")
        except UnicodeDecodeError:
            raise IndexFormatError(f"invalid UTF-8 in string at byte {start}") from None

    def array(self, dtype: str) -> np.ndarray:
        (n,) = self.unpack("<Q")
        start = self.skip(n * np.dtype(dtype).itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=n, offset=start)


def _check_csr(n_aliases: int, vocab_size: int, indptr: np.ndarray,
               indices: np.ndarray, weights: np.ndarray) -> None:
    if len(indptr) != n_aliases + 1:
        raise IndexFormatError(f"indptr has {len(indptr)} entries for {n_aliases} aliases")
    if indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
        raise IndexFormatError("indptr must start at 0 and never decrease")
    if indptr[-1] != len(indices) or indptr[-1] != len(weights):
        raise IndexFormatError(
            f"indptr ends at {indptr[-1]} but there are {len(indices)} gram ids "
            f"and {len(weights)} weights")
    if len(indices) and (indices.min() < 0 or indices.max() >= vocab_size):
        raise IndexFormatError(f"gram id outside [0, {vocab_size})")
    # a repeated gram id in a row would be scored twice
    unordered = np.diff(indices) <= 0
    row_starts = indptr[1:-1]
    unordered[row_starts[(row_starts > 0) & (row_starts < len(indices))] - 1] = False
    if unordered.any():
        raise IndexFormatError("gram ids must be strictly increasing within a row")
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise IndexFormatError("weights must be finite and non-negative")


def _check_increasing(items: list[str], what: str) -> None:
    if any(a >= b for a, b in zip(items, items[1:])):
        raise IndexFormatError(f"{what} must be strictly increasing (sorted, no repeats)")


def _parse_index(r: _Reader) -> AliasIndex:
    if r.data[:4] != MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    r.skip(4)
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported format version {version} (expected {FORMAT_VERSION}); "
            "rebuild the index with `bioling index build`")
    n_docs, min_df, vocab_size = r.unpack("<III")
    grams = [r.string() for _ in range(vocab_size)]
    # a repeated gram would shadow an earlier id in the vocabulary
    _check_increasing(grams, "grams")
    if any(len(g) != 3 for g in grams):
        raise IndexFormatError("every gram must be exactly 3 code points long")
    df = r.array("<i8")
    if len(df) != vocab_size:
        raise IndexFormatError(f"{len(df)} document frequencies for {vocab_size} grams")
    # fit keeps only grams with min_df <= df <= n_docs; outside that the
    # idf is NaN or below 1
    if len(df) and (df.min() < max(1, min_df) or df.max() > n_docs):
        raise IndexFormatError(
            f"document frequencies must lie in [max(1, min_df), n_docs] = "
            f"[{max(1, min_df)}, {n_docs}]")
    vectorizer = NgramVectorizer(grams, df, n_docs, min_df)
    (n_aliases,) = r.unpack("<I")
    rows = []
    for _ in range(n_aliases):
        alias, (n_ids,) = r.string(), r.unpack("<I")
        ids = tuple(r.string() for _ in range(n_ids))
        # written sorted and unique, so an empty id would come first
        if not ids or not ids[0] or any(a >= b for a, b in zip(ids, ids[1:])):
            raise IndexFormatError(f"alias {alias!r} needs one or more concept ids, "
                                   "nonempty, sorted and unique")
        rows.append((alias, ids))
    # row order is the tie-break order
    _check_increasing([alias for alias, _ in rows], "aliases")
    indptr, indices, weights = r.array("<i8"), r.array("<i4"), r.array("<f8")
    _check_csr(n_aliases, vocab_size, indptr, indices, weights)
    if r.pos != len(r.data):
        raise IndexFormatError(
            f"{len(r.data) - r.pos} trailing bytes after the vectors")
    return AliasIndex(dict(rows), indptr, indices, weights, vectorizer)


def load_index(path: str) -> AliasIndex:
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return _parse_index(_Reader(data))
    except IndexFormatError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
