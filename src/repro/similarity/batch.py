"""Batch similarity substrate: the vectorized fast path of the string→vector boundary.

Every Power/Power+ run front-loads its cost in two places: the §7.1 pruning
join and the §3.1 similarity-vector computation.  The scalar implementations
(:mod:`repro.similarity.join`, :mod:`repro.similarity.vectors`) execute pure
Python per pair and per attribute; they remain the *reference* implementations
and the ground truth for tests.  This module provides numerically identical
fast paths:

* :class:`TokenIndex` — tokenizes each distinct string exactly once, interns
  tokens into dense integer ids, and backs a packed bit-matrix so set
  intersections become byte-wise ``AND`` + popcount over numpy arrays.
* :func:`batch_similarity_matrix` — a drop-in replacement for
  :func:`repro.similarity.vectors.similarity_matrix` that dispatches each
  attribute to a vectorized kernel (token/bigram Jaccard through the sparse
  index, edit similarity through a deduplicated, length-bucketed, optionally
  process-parallel runner) and applies the ``tau`` clamp as one numpy op.
* :func:`sparse_jaccard_join` — the record-level Jaccard self-join computed
  via inverted-list intersection counts (``np.bincount``) instead of per-pair
  Python set ops, verifying only the candidates at or above an overlap
  floor and returning sorted pairs, with a ``[lo, hi)`` probe-range form;
  the one candidate join behind :func:`repro.similarity.join.similar_pairs`
  and :func:`repro.similarity.join.similar_pairs_range`.

The contract, enforced by tests: fast and reference paths agree on the exact
same pair sets and produce bit-identical similarity values (both sides reduce
to the same IEEE-754 divisions).
"""

from __future__ import annotations

import copy
import os
from bisect import bisect_left
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from .edit import edit_similarity
from .tokenize import normalize, qgram_tokens, word_tokens
from .vectors import SimilarityConfig

#: Soft cap (bytes) on the per-chunk temporary of the pairwise AND kernel.
_CHUNK_BYTES = 32 << 20

#: Environment variable that opts the edit-similarity runner into a process
#: pool (value = worker count).  Serial by default: the deduplicated cached
#: runner is already fast, and forking is not free.
EDIT_WORKERS_ENV = "POWER_EDIT_WORKERS"

#: Minimum number of *unique* string pairs before a process pool can pay for
#: its fork + pickle overhead.
_MIN_PAIRS_FOR_POOL = 4096

#: Fall back to the generic per-text tokenizer when a corpus uses this many
#: distinct codepoints: the code-interning bitmap is ``(k+1)**2`` bools, so
#: the cap keeps it at a few MB (real corpora use well under 1k characters).
_MAX_BIGRAM_ALPHABET = 1 << 12


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Row-wise popcount of a ``(n, w)`` uint64 matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


if not hasattr(np, "bitwise_count"):  # pragma: no cover - numpy < 2 fallback
    _POPCOUNT_TABLE = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1, dtype=np.uint8)

    def _popcount_rows(words: np.ndarray) -> np.ndarray:  # noqa: F811
        return _POPCOUNT_TABLE[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _intern_texts(texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Distinct strings (first-seen order) and each row's index into them."""
    seen: dict[str, int] = {}
    unique: list[str] = []
    inverse = np.empty(len(texts), dtype=np.int64)
    for position, text in enumerate(texts):
        index = seen.get(text)
        if index is None:
            index = len(unique)
            seen[text] = index
            unique.append(text)
        inverse[position] = index
    return unique, inverse


def _pack_rows(
    num_rows: int, row_of_token: np.ndarray, token_ids: np.ndarray, vocab_size: int
) -> np.ndarray:
    """Pack per-row token-id sets into a ``(num_rows, words)`` uint64 matrix.

    Fully vectorized: each (row, word) cell is the OR of its tokens' one-bit
    masks, computed with a single sort + ``bitwise_or.reduceat``.
    """
    num_words = max(1, (vocab_size + 63) // 64)
    bits = np.zeros(num_rows * num_words, dtype=np.uint64)
    if token_ids.size:
        word = token_ids >> 6
        bit = np.uint64(1) << (token_ids & 63).astype(np.uint64)
        cell = row_of_token * num_words + word
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        bit = bit[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(cell)) + 1))
        bits[cell[starts]] = np.bitwise_or.reduceat(bit, starts)
    return bits.reshape(num_rows, num_words)


class TokenIndex:
    """Token sets of many strings as a packed bit-matrix.

    Each *distinct* input string is tokenized exactly once; tokens are
    interned into dense integer ids; each string's token set becomes one row
    of a ``(num_unique, ceil(vocab / 64))`` uint64 word matrix.  Jaccard for a
    batch of row pairs is then ``popcount(row_a AND row_b) / (|a| + |b| - ∩)``
    computed with numpy, which matches the scalar
    :func:`repro.similarity.jaccard.jaccard` bit for bit (both are a single
    int/int IEEE division).

    Args:
        texts: one string per row (rows map to record ids downstream).
        tokenizer: ``str -> frozenset[str]`` (e.g. :func:`word_tokens` or
            :func:`qgram_tokens`).
    """

    def __init__(self, texts: Sequence[str], tokenizer: Callable[[str], frozenset[str]]):
        unique, inverse = _intern_texts(texts)
        self.row_of_text = inverse
        # Tokenize each distinct string once and intern tokens into dense ids.
        vocab: dict[str, int] = {}
        flat_ids: list[int] = []
        sizes = np.zeros(len(unique), dtype=np.int64)
        for row, text in enumerate(unique):
            tokens = tokenizer(text)
            sizes[row] = len(tokens)
            # Sorted iteration pins the dense id layout: identical corpora
            # produce identical packed matrices in any process, regardless
            # of hash randomization — which is what lets streaming
            # checkpoints hash their index blobs reproducibly.
            for token in sorted(tokens):
                flat_ids.append(vocab.setdefault(token, len(vocab)))
        self.sizes = sizes
        self.vocab_size = len(vocab)
        row_of_token = np.repeat(np.arange(len(unique), dtype=np.int64), sizes)
        self.bits = _pack_rows(
            len(unique),
            row_of_token,
            np.asarray(flat_ids, dtype=np.int64),
            self.vocab_size,
        )
        # Interning state kept live so extend() can append without a rebuild.
        self._tokenizer: Callable[[str], frozenset[str]] | None = tokenizer
        self._seen: dict[str, int] | None = {
            text: row for row, text in enumerate(unique)
        }
        self._vocab: dict[str, int] | None = vocab

    def extend(self, texts: Sequence[str]) -> "TokenIndex":
        """Append more texts in place, reusing the existing interned state.

        New distinct strings are tokenized once, new tokens get the next
        dense ids, and the packed bit-matrix grows by exactly the new rows
        (existing rows are zero-padded when the vocabulary spills into new
        64-bit words, which changes no set bits).  The result is
        bit-identical to rebuilding ``TokenIndex(old_texts + texts)`` from
        scratch — that is what makes streaming candidate sweeps exact — at
        O(new) interning cost instead of O(all).

        Only indexes built through the generic constructor support this;
        the vectorized :meth:`for_bigrams` fast path discards its interning
        state and raises :class:`ConfigurationError`.
        """
        if self._seen is None or self._vocab is None or self._tokenizer is None:
            raise ConfigurationError(
                "this TokenIndex was built without interning state "
                "(for_bigrams fast path); rebuild it to add texts"
            )
        new_inverse = np.empty(len(texts), dtype=np.int64)
        new_unique: list[str] = []
        first_new_row = len(self._seen)
        for position, text in enumerate(texts):
            index = self._seen.get(text)
            if index is None:
                index = len(self._seen)
                self._seen[text] = index
                new_unique.append(text)
            new_inverse[position] = index
        self.row_of_text = np.concatenate((self.row_of_text, new_inverse))
        if not new_unique:
            return self
        flat_ids: list[int] = []
        sizes = np.zeros(len(new_unique), dtype=np.int64)
        for row, text in enumerate(new_unique):
            tokens = self._tokenizer(text)
            sizes[row] = len(tokens)
            for token in sorted(tokens):  # same id discipline as __init__
                flat_ids.append(self._vocab.setdefault(token, len(self._vocab)))
        self.vocab_size = len(self._vocab)
        num_words = max(1, (self.vocab_size + 63) // 64)
        if num_words > self.bits.shape[1]:
            grown = np.zeros((first_new_row, num_words), dtype=np.uint64)
            grown[:, : self.bits.shape[1]] = self.bits
            self.bits = grown
        new_bits = _pack_rows(
            len(new_unique),
            np.repeat(np.arange(len(new_unique), dtype=np.int64), sizes),
            np.asarray(flat_ids, dtype=np.int64),
            self.vocab_size,
        )
        self.bits = np.vstack((self.bits, new_bits))
        self.sizes = np.concatenate((self.sizes, sizes))
        return self

    def copy(self) -> "TokenIndex":
        """An index that :meth:`extend` can grow while this one stays as is.

        Only the interning dictionaries are duplicated: :meth:`extend`
        replaces the arrays rather than writing into them, so the copy
        shares them safely.
        """
        clone = copy.copy(self)
        if self._seen is not None and self._vocab is not None:
            clone._seen = dict(self._seen)
            clone._vocab = dict(self._vocab)
        return clone

    @classmethod
    def for_bigrams(cls, texts: Sequence[str]) -> "TokenIndex":
        """Vectorized constructor for the paper's default 2-gram tokens.

        All distinct normalized strings are NUL-joined into one buffer and
        decoded to codepoints in a single pass; codepoints are remapped to a
        dense alphabet with a presence bitmap so every 2-gram becomes one
        small integer code, and both token interning and per-row *set*
        deduplication happen through pure array ops — no hashing, sorting on
        strings, or Python-level token loops at all.  Matches
        :func:`repro.similarity.tokenize.qgram_tokens` (q=2) exactly on any
        ``str``, including the whole-string token for normalized strings of
        length ``<= 2`` and lone surrogates (encoded as their own codepoint).

        The presence bitmap spans ``0 .. max codepoint`` of the corpus, not
        all of Unicode: its prefix sums up to the largest codepoint present
        are the same either way, so the dense ids do not depend on the
        bitmap's length, and an ASCII column pays for at most 128 entries.
        A corpus with :data:`_MAX_BIGRAM_ALPHABET` or more distinct
        codepoints takes the generic per-text tokenizer instead.
        """
        unique, inverse = _intern_texts(texts)
        norms = [normalize(text) for text in unique]
        if any("\x00" in norm for norm in norms):
            # NUL inside a value would break the joined-buffer boundaries;
            # degenerate inputs take the generic (per-text) path.
            return cls(texts, qgram_tokens)
        self = cls.__new__(cls)
        # The vectorized path interns through array bitmaps, not dicts, so
        # there is no incremental state to keep: extend() is unsupported.
        self._tokenizer = None
        self._seen = None
        self._vocab = None
        self.row_of_text = inverse
        lengths = np.fromiter(
            (len(norm) for norm in norms), dtype=np.int64, count=len(norms)
        )
        joined = "\x00".join(norms)
        empty = not joined
        points = alphabet = None
        if not empty:
            points = np.frombuffer(
                joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
            )
            # Remap codepoints onto a dense alphabet: ids start at 1, so a
            # single-char whole-string token (code = id, in [1, K]) can never
            # collide with a bigram code (id1 * (K + 1) + id2 >= K + 2).
            present = np.zeros(int(points.max()) + 1, dtype=bool)
            present[points] = True
            alphabet = np.cumsum(present, dtype=np.int64)
            k = int(alphabet[-1])
            if k >= _MAX_BIGRAM_ALPHABET:
                return cls(texts, qgram_tokens)
        if empty:
            self.sizes = np.zeros(len(unique), dtype=np.int64)
            self.vocab_size = 0
            self.bits = np.zeros((max(1, len(unique)), 1), dtype=np.uint64)[
                : len(unique)
            ]
            return self
        ids = alphabet[points]
        base = k + 1
        spans = lengths + 1  # each text plus its trailing separator
        row_of_char = np.repeat(np.arange(len(norms), dtype=np.int64), spans)[
            : points.size
        ]
        codes = ids[:-1] * base + ids[1:]
        valid = (points[:-1] != 0) & (points[1:] != 0)
        flat_codes = codes[valid]
        flat_rows = row_of_char[:-1][valid]
        # Whole-string tokens of length-1 normalized strings.
        single_rows = np.flatnonzero(lengths == 1)
        if single_rows.size:
            starts = np.cumsum(spans) - spans
            flat_codes = np.concatenate((flat_codes, ids[starts[single_rows]]))
            flat_rows = np.concatenate((flat_rows, single_rows))
        # Intern codes into dense vocabulary ids with a second presence
        # bitmap (codes < base**2, a few MB at most).
        vocab_bitmap = np.zeros(base * base, dtype=bool)
        vocab_bitmap[flat_codes] = True
        dense_map = np.cumsum(vocab_bitmap, dtype=np.int64)
        self.vocab_size = int(dense_map[-1])
        dense_ids = dense_map[flat_codes] - 1
        # Duplicate (row, token) entries just OR the same bit twice, so the
        # packed matrix needs no prior dedup; distinct-token counts fall out
        # of the popcounts.
        self.bits = _pack_rows(len(unique), flat_rows, dense_ids, self.vocab_size)
        self.sizes = _popcount_rows(self.bits)
        return self

    def __len__(self) -> int:
        return self.bits.shape[0]

    def intersection_counts(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``|tokens(left[i]) ∩ tokens(right[i])|`` for aligned row arrays."""
        total = np.empty(len(left), dtype=np.int64)
        row_bytes = self.bits.shape[1] * 8
        chunk = max(1024, _CHUNK_BYTES // row_bytes)
        for start in range(0, len(left), chunk):
            stop = start + chunk
            band = self.bits[left[start:stop]] & self.bits[right[start:stop]]
            total[start:stop] = _popcount_rows(band)
        return total

    def jaccard_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Jaccard similarity for aligned arrays of *text* indexes.

        *left*/*right* index into the original ``texts`` sequence; the
        empty-set conventions of the scalar :func:`jaccard` apply (two empty
        sets are identical, one empty set matches nothing).
        """
        rows_l = self.row_of_text[np.asarray(left, dtype=np.int64)]
        rows_r = self.row_of_text[np.asarray(right, dtype=np.int64)]
        inter = self.intersection_counts(rows_l, rows_r)
        union = self.sizes[rows_l] + self.sizes[rows_r] - inter
        with np.errstate(invalid="ignore"):
            scores = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        return scores


# --------------------------------------------------------------------------- #
# Edit-similarity runner: dedup + cache + length buckets (+ optional pool)
# --------------------------------------------------------------------------- #

_cached_edit_similarity = lru_cache(maxsize=1 << 15)(edit_similarity)


def _edit_chunk(string_pairs: list[tuple[str, str]]) -> list[float]:
    """Worker function for the process pool (must be module-level to pickle)."""
    return [edit_similarity(a, b) for a, b in string_pairs]


def _resolve_edit_workers(edit_workers: int | None) -> int:
    if edit_workers is not None:
        return max(1, int(edit_workers))
    raw = os.environ.get(EDIT_WORKERS_ENV, "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def batch_edit_similarities(
    texts: Sequence[str],
    left: np.ndarray,
    right: np.ndarray,
    edit_workers: int | None = None,
) -> np.ndarray:
    """Edit similarity ``EDS(texts[left[i]], texts[right[i]])`` for all i.

    The quadratic DP cannot be vectorized the way set intersections can, so
    the batch win comes from doing strictly less work: string pairs are
    deduplicated (attribute columns repeat values heavily on ER data),
    identical-string pairs short-circuit to 1.0, survivors are processed in
    ascending max-length *buckets* (cheap problems first, and contiguous
    chunks of comparable cost so an optional :class:`ProcessPoolExecutor`
    balances), and a shared ``lru_cache`` absorbs repeats across calls.
    The per-pair function is the scalar :func:`edit_similarity` itself, so
    results are bit-identical to the reference path.
    """
    values, inverse = _intern_texts(texts)
    vi = inverse[np.asarray(left, dtype=np.int64)]
    vj = inverse[np.asarray(right, dtype=np.int64)]
    lo = np.minimum(vi, vj)
    hi = np.maximum(vi, vj)
    codes = lo * len(values) + hi
    unique_codes, scatter = np.unique(codes, return_inverse=True)
    unique_lo = unique_codes // len(values)
    unique_hi = unique_codes % len(values)

    sims = np.empty(len(unique_codes), dtype=np.float64)
    identical = unique_lo == unique_hi
    sims[identical] = 1.0

    todo = np.flatnonzero(~identical)
    if todo.size:
        lengths = np.fromiter((len(v) for v in values), dtype=np.int64, count=len(values))
        # Length-bucketed order: ascending max(|a|, |b|).
        order = todo[np.argsort(np.maximum(lengths[unique_lo[todo]], lengths[unique_hi[todo]]), kind="stable")]
        workers = _resolve_edit_workers(edit_workers)
        if workers > 1 and order.size >= _MIN_PAIRS_FOR_POOL:
            string_pairs = [(values[unique_lo[k]], values[unique_hi[k]]) for k in order]
            chunk = max(256, len(string_pairs) // (workers * 4))
            chunks = [string_pairs[i : i + chunk] for i in range(0, len(string_pairs), chunk)]
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_edit_chunk, chunks))
                sims[order] = np.fromiter(
                    (score for chunk_scores in results for score in chunk_scores),
                    dtype=np.float64,
                    count=len(string_pairs),
                )
            except (OSError, ValueError, RuntimeError):  # pragma: no cover - env dependent
                for k in order:
                    sims[k] = _cached_edit_similarity(values[unique_lo[k]], values[unique_hi[k]])
        else:
            cached = _cached_edit_similarity
            for k in order:
                sims[k] = cached(values[unique_lo[k]], values[unique_hi[k]])
    return sims[scatter]


# --------------------------------------------------------------------------- #
# batch_similarity_matrix: the fast path of similarity_matrix
# --------------------------------------------------------------------------- #


def batch_similarity_matrix(
    table: Table,
    pairs: Sequence[Pair],
    config: SimilarityConfig,
    edit_workers: int | None = None,
) -> np.ndarray:
    """Vectorized drop-in for :func:`repro.similarity.vectors.similarity_matrix`.

    Per attribute the work is dispatched to a batch kernel:

    * ``"jaccard"`` — word-token Jaccard through a :class:`TokenIndex`;
    * ``"bigram"`` — 2-gram Jaccard through a :class:`TokenIndex`;
    * ``"edit"`` — :func:`batch_edit_similarities` (dedup + cache + buckets).

    The attribute clamp (``s < tau → 0``) is applied as a single numpy
    ``where``.  Equivalence with the scalar path is exact, not approximate:
    both reduce each component to the same integer-ratio division or the same
    :func:`edit_similarity` call.  Only the records some pair touches are
    tokenized, so the cost follows the pairs rather than the table.

    Args:
        table: the input table.
        pairs: candidate record pairs (row order of the result).
        config: per-attribute similarity functions and clamp ``tau``.
        edit_workers: process-pool width for edit-similarity attributes;
            defaults to the ``POWER_EDIT_WORKERS`` environment variable, else
            serial.
    """
    config.for_table(table)
    matrix = np.empty((len(pairs), config.num_attributes), dtype=np.float64)
    if not len(pairs):  # explicit empty-input fast path
        return matrix
    pair_array = np.asarray(pairs, dtype=np.int64)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ConfigurationError(f"pairs must be (i, j) tuples, got shape {pair_array.shape}")
    left = np.minimum(pair_array[:, 0], pair_array[:, 1])
    right = np.maximum(pair_array[:, 0], pair_array[:, 1])
    # Tokenize only the records the pairs touch, renumbered densely: the
    # pairs of one streamed batch reach a sliver of a long table.
    touched = np.zeros(len(table), dtype=bool)
    touched[left] = True
    touched[right] = True
    records = [table.records[row] for row in np.flatnonzero(touched).tolist()]
    position = np.cumsum(touched) - 1
    left, right = position[left], position[right]
    for k, name in enumerate(config.functions):
        column = [record.values[k] for record in records]
        if name == "jaccard":
            matrix[:, k] = TokenIndex(column, word_tokens).jaccard_pairs(left, right)
        elif name == "bigram":
            matrix[:, k] = TokenIndex.for_bigrams(column).jaccard_pairs(left, right)
        elif name == "edit":
            matrix[:, k] = batch_edit_similarities(column, left, right, edit_workers)
        else:  # pragma: no cover - future functions fall back to scalar
            from .vectors import resolve_function

            function = resolve_function(name)
            matrix[:, k] = [function(column[i], column[j]) for i, j in zip(left, right)]
    tau = config.attribute_threshold
    return np.where(matrix >= tau, matrix, 0.0)


# --------------------------------------------------------------------------- #
# Sparse record-level Jaccard self-join (the pruning step, vectorized)
# --------------------------------------------------------------------------- #


def _overlap_floor(max_size: int, threshold: float) -> np.ndarray:
    """``need[s]``: the fewest shared tokens that can pass with an ``s``-token probe.

    ``union = |a| + |b| - inter >= |b|`` and IEEE division is monotone, so a
    pair with ``inter / union >= threshold`` also has ``inter / |b| >=
    threshold`` in floats.  ``need[s]`` is therefore the least ``k`` with
    ``k / s >= threshold``, found with that same division.  ``ceil(threshold
    * s)`` is not it: ``0.28 * 25`` rounds to ``7.000000000000001``, yet a
    7-token record inside a 25-token one scores ``7 / 25 == 0.28``.
    """
    sizes = np.arange(max_size + 1)
    need = np.ceil(threshold * sizes).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        while (lower := (need - 1) / sizes >= threshold).any():
            need -= lower
        while (higher := need / sizes < threshold).any():
            need += higher
    return need


def sparse_jaccard_join(
    token_sets: Sequence[frozenset[str]],
    threshold: float,
    lo: int = 0,
    hi: int | None = None,
) -> list[Pair]:
    """All pairs with ``jaccard(token_sets[a], token_sets[b]) >= threshold``, sorted.

    An inverted-list join: each record ``b`` gathers the posting lists of
    its tokens cut at ``b`` (all earlier records sharing at least one
    token) and obtains every intersection size in one ``np.bincount``.
    Only the candidates sharing at least :func:`_overlap_floor` tokens
    can pass, so only they are verified.  The verification ``∩ / ∪ >= t``
    is a vectorized int/int division — the exact same IEEE operation as
    the scalar :func:`jaccard` — so the result matches the naive
    quadratic scan pair for pair.

    A pair ``(a, b)`` with ``a < b`` is *owned* by its higher id ``b``.
    With a ``[lo, hi)`` probe range only the pairs owned by those records
    are returned: records before *lo* are replayed into the posting lists
    (appends only, including the list of empty token sets) and never
    probed.  Tiling ``[0, n)`` with disjoint ranges therefore tiles the
    full join output — the work unit of the sharded parallel join.

    Records with *empty* token sets follow the scalar convention (two empty
    sets have similarity 1.0) and are paired among themselves.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    hi = len(token_sets) if hi is None else hi
    if not 0 <= lo <= hi <= len(token_sets):
        raise ConfigurationError(
            f"range [{lo}, {hi}) escapes the {len(token_sets)}-record join"
        )
    vocab: dict[str, int] = {}
    rows = [
        [vocab.setdefault(token, len(vocab)) for token in tokens]
        for tokens in token_sets[:hi]
    ]
    sizes = np.fromiter((len(ids) for ids in rows), dtype=np.int64, count=len(rows))
    # Posting lists in record order: ``cuts[b][k]`` is how many records
    # before ``b`` hold b's k-th token, so ``postings[token][:cut]`` is
    # exactly the index state a serial scan would have at record ``b``.
    lists: list[list[int]] = [[] for _ in range(len(vocab))]
    empties: list[int] = []
    cuts: list[list[int]] = []
    for record_id, ids in enumerate(rows):
        if not ids:
            empties.append(record_id)
        cuts.append([len(lists[token]) for token in ids])
        for token in ids:
            lists[token].append(record_id)
    postings = [np.asarray(posting, dtype=np.int64) for posting in lists]
    need = _overlap_floor(int(sizes.max(initial=0)), threshold).tolist()

    partners: list[np.ndarray] = []
    owners: list[int] = []
    for record_id in range(lo, hi):
        ids = rows[record_id]
        if not ids:
            # jaccard(∅, ∅) == 1.0 >= threshold for every valid threshold.
            kept = np.asarray(empties[: bisect_left(empties, record_id)], dtype=np.int64)
        else:
            parts = [
                postings[token][:cut]
                for token, cut in zip(ids, cuts[record_id])
                if cut
            ]
            if not parts:
                continue
            counts = np.bincount(np.concatenate(parts))
            candidates = np.flatnonzero(counts >= need[len(ids)])
            inter = counts[candidates]
            union = sizes[candidates] + len(ids) - inter
            kept = candidates[(inter / union) >= threshold]
        partners.append(kept)
        owners.append(record_id)
    if not partners:
        return []
    left = np.concatenate(partners)
    right = np.repeat(
        np.asarray(owners, dtype=np.int64),
        np.fromiter(map(len, partners), dtype=np.int64, count=len(partners)),
    )
    order = np.lexsort((right, left))
    return list(zip(left[order].tolist(), right[order].tolist()))
