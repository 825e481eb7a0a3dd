"""Searchable alias index: exact cosine top-k.

Alias vectors are kept as one posting list per gram id (`AliasIndex`),
the CSC form of the alias-by-gram matrix and the arrays a `.blix` file
stores: `build_index` takes them from `NgramVectorizer.encode_csc`, which
fills each posting list in place, chunk by chunk, and loading reads them
as stored. A query's score against every alias is
accumulated from the posting lists of its grams. Since all weights are
non-negative and vectors unit-normalized, scores are cosines in [0, 1].
Rows are stored in alias order, so the row number is the tie-break: ties
at the same cosine come out lexicographically by alias string.

Each posting list is added into the scores in one pass with
`np.add.at` (numpy >= 1.25 adds in place without buffering). Rows are
unique within a list, so every score gets the same float additions, in
the same order, as a gather, add and scatter would give it.

Top-k selection never sorts the whole index. Any k scored rows bound the
k-th best score from below (the threshold of WAND, Broder et al. 2003,
read from scores already computed: nothing is pruned or rescored). The
bound t is the k-th best score among the rows of the shortest query
posting list that holds at least k rows; the scoring loop notes that list
as it goes, from the [lo, hi) of every query gram taken in one gather
from `post_ptr`, so the bound costs one `np.partition` over the list's
scores. Only rows scoring at least t are kept (rows above 0 when t is 0
or no list holds k rows), so every row of the top k survives, ties
included. `np.partition` then finds the k-th best kept score, and only
the rows scoring at least that much are sorted, by score descending with
a stable sort over ascending rows.

The rows are `KnowledgeBase.alias_table`'s: a normalized alias key's
smallest surface, with the key's concept ids (surfaces of one key have
identical vectors). A top-k slot is thus one alias key.

Persistence: single little-endian binary file, magic "BLIX", format
version 4 (see docs/index-format.md): a header, flat typed arrays and a
CRC-32 trailer. `save_index` replaces the target atomically and makes
each string list's arrays only once the arrays before them are written,
so beside the index it holds one string list's offsets, text and UTF-8
bytes at most. `load_index` raises `IndexFormatError` on any damaged,
malformed or older file. Past the magic, the size and the version, it
checks the CRC over the whole file first, 1 MiB at a time in one buffer,
so a damaged file is reported as such whatever its counts say, before
any array is allocated. Only then does it read each array straight into
the buffer the index keeps, except the int32 posting rows, which it
widens into theirs a block of `_BLOCK` rows at a time (as `save_index`
narrows them); a count that runs past the end of the file is rejected
before anything is allocated. The file is never held whole (a pipe or
FIFO, which cannot seek, is read into one `io.BytesIO` first).
Constructors trust their inputs; the reader checks them.
"""

from __future__ import annotations

import io
import itertools
import operator
import os
import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from .kb import KnowledgeBase
from .vectorizer import NgramVectorizer, SparseVector, gram_code_points

MAGIC = b"BLIX"
FORMAT_VERSION = 4
# magic, version, n_docs, min_df
_HEADER = struct.Struct("<4sHII")
# the arrays after the header, in file order, with their stored types: gram
# codes, document frequencies, aliases (code-point offsets, UTF-8 bytes),
# per-row concept id offsets, concept ids (likewise) and the postings
_ARRAYS = ("<i8", "<i8", "<i8", "u1", "<i8", "<i8", "u1", "<i8", "<i4", "<f8")
# added to a column of gram ids: the `post_ptr` entries of each one's posting
# list's start and end
_LO_HI = np.array([0, 1])
# elements per block when `save_index` converts and `load_index` widens the
# posting rows; it bounds the int32 copy either makes
_BLOCK = 1 << 16


class IndexFormatError(ValueError):
    """Raised on a corrupt or incompatible serialized index."""


class AliasIndex:
    """Alias rows, each a surface with its sorted concept ids, and the
    posting list of each gram id over those rows.

    `alias_table` maps each row's surface to its concept ids, in row order,
    and `aliases` lists its keys. Gram g occurs in the rows
    `post_rows[post_ptr[g]:post_ptr[g + 1]]`, strictly increasing, with the
    weights of `post_weights` at the same positions; the arrays are used as
    given, without copies. Aliases must be strictly increasing: row order
    is the tie-break order.
    """

    def __init__(
        self,
        alias_table: dict[str, tuple[str, ...]],
        post_ptr: np.ndarray,
        post_rows: np.ndarray,
        post_weights: np.ndarray,
        vectorizer: NgramVectorizer,
    ):
        self.alias_table = alias_table
        self.aliases = list(alias_table)
        self.post_ptr = post_ptr
        self.post_rows = post_rows
        self.post_weights = post_weights
        self.vectorizer = vectorizer

    def __len__(self) -> int:
        return len(self.aliases)

    # -- scoring --------------------------------------------------------

    def _scores_and_bound(self, query: SparseVector, k: int) -> tuple[np.ndarray, float]:
        """The query's score against every row, and a lower bound on the k-th
        best of them: the k-th best score among the rows of the shortest
        query posting list holding at least k rows, or 0.0 when no list
        holds k rows."""
        scores = np.zeros(len(self.aliases), dtype=np.float64)
        post_rows, post_weights = self.post_rows, self.post_weights
        # each query gram's [lo, hi) in the postings, from one gather
        spans = self.post_ptr[query.indices[:, None] + _LO_HI].tolist()
        shortest, shortest_len = None, len(post_rows) + 1
        for (lo, hi), w in zip(spans, query.weights.tolist()):
            rows = post_rows[lo:hi]
            np.add.at(scores, rows, w * post_weights[lo:hi])
            if k <= hi - lo < shortest_len:
                shortest, shortest_len = rows, hi - lo
        if shortest is None:
            return scores, 0.0
        vals = scores[shortest]
        return scores, float(np.partition(vals, len(vals) - k)[len(vals) - k])

    def nearest_aliases(self, query: SparseVector, k: int) -> list[tuple[str, float]]:
        """Up to k (alias, cosine) pairs, best first.

        Zero-similarity aliases are never returned, so fewer than k
        results can come back; a zero query vector yields none.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if query.is_zero or not self.aliases:
            return []
        # every row of the top k scores at least the bound, ties included
        scores, bound = self._scores_and_bound(query, k)
        # the mask's own `nonzero`: `np.flatnonzero` ravels it first, 2-5 µs
        # more per query at 20k rows
        rows = (scores >= bound if bound > 0.0 else scores > 0.0).nonzero()[0]
        vals = scores[rows]
        # sort only the rows scoring at least the k-th best, so every row
        # tied with it survives to the tie-break
        if len(rows) > k:
            kth = np.partition(vals, len(rows) - k)[len(rows) - k]
            keep = vals >= kth
            rows, vals = rows[keep], vals[keep]
        # rows are still ascending, i.e. in alias order, and the sort is
        # stable, so tied rows come out in alias order
        order = np.argsort(-vals, kind="stable")[:k]
        return list(zip(map(self.aliases.__getitem__, rows[order].tolist()),
                        vals[order].tolist()))


def build_index(kb: KnowledgeBase, vectorizer: NgramVectorizer) -> AliasIndex:
    """Index the rows of `kb.alias_table`, sharing the dict, by `encode_csc`."""
    post_ptr, post_rows, post_weights = vectorizer.encode_csc(list(kb.alias_table))
    return AliasIndex(kb.alias_table, post_ptr, post_rows, post_weights, vectorizer)


# -- persistence --------------------------------------------------------

def _offsets(items) -> np.ndarray:
    """0, then the running total of the lengths of the items."""
    lengths = np.fromiter(itertools.chain([0], map(len, items)), dtype=np.int64,
                          count=len(items) + 1)
    return np.cumsum(lengths, out=lengths)


def _string_list(items: list[str]) -> list[np.ndarray]:
    """The code-point offsets of the items, then the UTF-8 bytes of all."""
    return [_offsets(items), np.frombuffer("".join(items).encode("utf-8"), dtype=np.uint8)]


def _arrays(index: AliasIndex) -> Iterator[np.ndarray]:
    """The arrays of a `.blix` file in order; each string list's arrays are
    made only once the arrays before them have been written."""
    yield from (index.vectorizer.codes, index.vectorizer.df)
    yield from _string_list(index.aliases)
    ids = list(index.alias_table.values())
    yield _offsets(ids)
    yield from _string_list(list(itertools.chain.from_iterable(ids)))
    yield from (index.post_ptr, index.post_rows, index.post_weights)


def _write_index(fp: BinaryIO, index: AliasIndex) -> None:
    v = index.vectorizer
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, v.n_docs, v.min_df)
    fp.write(header)
    crc = zlib.crc32(header)
    for arr, dtype in zip(_arrays(index), _ARRAYS):
        # an array[T]: u64 element count, then the raw elements, converted
        # to T a block at a time (only the int64 rows need it)
        count = struct.pack("<Q", len(arr))
        fp.write(count)
        crc = zlib.crc32(count, crc)
        for lo in range(0, len(arr), _BLOCK):
            block = np.ascontiguousarray(arr[lo:lo + _BLOCK], dtype=dtype)
            fp.write(block)
            crc = zlib.crc32(block, crc)
    fp.write(struct.pack("<I", crc))


def save_index(index: AliasIndex, path: str) -> None:
    """Write the index to `path`, through any symlink, atomically: a temporary
    file beside the target is renamed over it only once completely written."""
    path = os.path.realpath(path)
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


def _check_crc(fp: BinaryIO, end: int) -> None:
    """Check bytes [0, end) of `fp` against the CRC-32 trailer at `end`,
    read a block at a time into one buffer."""
    fp.seek(0)
    buf = memoryview(bytearray(min(end, 1 << 20)))
    crc, pos = 0, 0
    while pos < end:
        n = fp.readinto(buf[:end - pos])
        if not n:
            raise IndexFormatError("unexpected end of file")
        crc, pos = zlib.crc32(buf[:n], crc), pos + n
    if crc != int.from_bytes(fp.read(4), "little"):
        raise IndexFormatError("CRC-32 mismatch: the file is damaged")


def _read_arrays(fp: BinaryIO, end: int) -> list[np.ndarray]:
    """The arrays after the header, which `fp` is positioned at; `end` is where
    the CRC-32 trailer starts.

    Each array is read into a buffer of its own, the one the index keeps.
    The int32 rows are read a block at a time and widened into an int64
    buffer (`np.add.at` would convert them on every query), so no whole
    int32 copy is ever held. A count that runs past `end` is rejected
    before anything is allocated."""
    arrays, pos = [], fp.tell()
    for dtype in map(np.dtype, _ARRAYS):
        n = int.from_bytes(fp.read(8), "little")
        # a count cut short by `end` fails this too, whatever it reads as
        pos += 8 + n * dtype.itemsize
        if pos > end:
            raise IndexFormatError("unexpected end of file")
        arr = np.empty(n, dtype=np.int64 if dtype.kind == "i" else dtype)
        # the int32 rows are read a block at a time into `buf` and widened
        # into `arr`; every other array is read in place
        buf = None if arr.dtype == dtype else np.empty(min(n, _BLOCK), dtype)
        for lo in range(0, n, _BLOCK):
            dst = arr[lo:lo + _BLOCK]
            block = dst if buf is None else buf[:len(dst)]
            if fp.readinto(block) != block.nbytes:
                raise IndexFormatError("unexpected end of file")
            if buf is not None:
                dst[:] = block
        arrays.append(arr)
    if pos != end:
        raise IndexFormatError(f"{end - pos} trailing bytes after the postings")
    return arrays


def _check_offsets(offsets: np.ndarray, count: int, end: int, what: str) -> None:
    """Offsets that cut `end` items into `count` runs, in order."""
    if len(offsets) != count + 1:
        raise IndexFormatError(f"{what} offsets have {len(offsets)} entries, not {count + 1}")
    if offsets[0] != 0 or offsets[-1] != end or np.any(offsets[1:] < offsets[:-1]):
        raise IndexFormatError(
            f"{what} offsets must start at 0, never decrease and end at {end}")


def _strings(offsets: np.ndarray, data: np.ndarray, what: str) -> list[str]:
    """A string list, its UTF-8 bytes decoded at once and cut at its offsets."""
    try:
        text = str(data, "utf-8")
    except UnicodeDecodeError:
        raise IndexFormatError(f"invalid UTF-8 in the {what}s") from None
    _check_offsets(offsets, max(len(offsets) - 1, 0), len(text), what)
    bounds = offsets.tolist()
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _check_concept_ids(aliases: list[str], id_ptr: np.ndarray, ids: tuple[str, ...]) -> None:
    # each id above the one before it in its row, the first of a row above ""
    before = np.array(["", *ids[:-1]], dtype=object)
    counts = np.diff(id_ptr)
    before[id_ptr[:-1][counts > 0]] = ""
    bad = np.flatnonzero(~np.fromiter(map(operator.lt, before, ids), dtype=bool, count=len(ids)))
    bad_rows = np.append(np.flatnonzero(counts == 0), np.searchsorted(id_ptr, bad, "right") - 1)
    if len(bad_rows):
        raise IndexFormatError(f"alias {aliases[bad_rows.min()]!r} needs one or more "
                               "concept ids, nonempty, sorted and unique")


def _check_postings(n_aliases: int, vocab_size: int, ptr: np.ndarray,
                    rows: np.ndarray, weights: np.ndarray) -> None:
    _check_offsets(ptr, vocab_size, len(rows), "posting")
    if len(weights) != len(rows):
        raise IndexFormatError(f"{len(rows)} posting rows but {len(weights)} weights")
    if len(rows) and (rows.min() < 0 or rows.max() >= n_aliases):
        raise IndexFormatError(f"posting row outside [0, {n_aliases})")
    # a repeated row in a posting list would be scored twice
    unordered = rows[1:] <= rows[:-1]
    list_starts = ptr[1:-1]
    unordered[list_starts[(list_starts > 0) & (list_starts < len(rows))] - 1] = False
    if unordered.any():
        raise IndexFormatError("rows must be strictly increasing within a posting list")
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise IndexFormatError("weights must be finite and non-negative")


def _parse_index(fp: BinaryIO) -> AliasIndex:
    size = fp.seek(0, os.SEEK_END)
    fp.seek(0)
    header = fp.read(_HEADER.size)
    if header[:4] != MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if size < _HEADER.size + 4:
        raise IndexFormatError("unexpected end of file")
    _, version, n_docs, min_df = _HEADER.unpack(header)
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported format version {version} (expected {FORMAT_VERSION}); "
            "rebuild the index with `bioling index build`")
    # the CRC-32 trailer covers every byte before it
    _check_crc(fp, size - 4)
    fp.seek(_HEADER.size)
    (codes, df, alias_offsets, alias_bytes, id_ptr, id_offsets, id_bytes,
     post_ptr, post_rows, post_weights) = _read_arrays(fp, size - 4)
    # a repeated code would shadow an earlier gram id in the vocabulary
    if np.any(codes[1:] <= codes[:-1]):
        raise IndexFormatError("gram codes must be strictly increasing")
    cp = gram_code_points(codes)
    if np.any((cp < 0) | (cp > 0x10FFFF) | ((cp >= 0xD800) & (cp <= 0xDFFF))):
        raise IndexFormatError("every gram code must pack 3 Unicode scalar values")
    if len(df) != len(codes):
        raise IndexFormatError(f"{len(df)} document frequencies for {len(codes)} grams")
    # fit keeps only grams with min_df <= df <= n_docs; outside that the
    # idf is NaN or below 1
    if len(df) and (df.min() < max(1, min_df) or df.max() > n_docs):
        raise IndexFormatError(
            f"document frequencies must lie in [max(1, min_df), n_docs] = "
            f"[{max(1, min_df)}, {n_docs}]")
    aliases = _strings(alias_offsets, alias_bytes, "alias")
    # row order is the tie-break order
    if not all(map(operator.lt, aliases, aliases[1:])):
        raise IndexFormatError("aliases must be strictly increasing (sorted, no repeats)")
    ids = tuple(_strings(id_offsets, id_bytes, "concept id"))
    _check_offsets(id_ptr, len(aliases), len(ids), "per-row concept id")
    _check_concept_ids(aliases, id_ptr, ids)
    _check_postings(len(aliases), len(codes), post_ptr, post_rows, post_weights)
    bounds = id_ptr.tolist()
    alias_table = dict(zip(aliases, [ids[a:b] for a, b in zip(bounds, bounds[1:])]))
    return AliasIndex(alias_table, post_ptr, post_rows, post_weights,
                      NgramVectorizer(codes, df, n_docs, min_df))


def load_index(path: str) -> AliasIndex:
    try:
        with open(path, "rb") as fp:
            # a pipe or FIFO cannot seek: read it whole, once
            return _parse_index(fp if fp.seekable() else io.BytesIO(fp.read()))
    except IndexFormatError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
