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
  index, edit similarity through a deduplicated, length-bucketed, cached
  runner) and applies the ``tau`` clamp as one numpy op.
* :class:`PostingJoin` — the record-level Jaccard self-join computed via
  inverted-list intersection counts (``np.bincount``) instead of per-pair
  Python set ops, verifying only the candidates at or above an overlap
  floor and returning sorted pairs.  It is resumable: :meth:`PostingJoin.extend`
  probes only the records it adds, so the one-shot join
  (:func:`sparse_jaccard_join`, behind
  :func:`repro.similarity.join.similar_pairs`) and a stream's batches run
  the same algorithm.

The contract, enforced by tests: fast and reference paths agree on the exact
same pair sets and produce bit-identical similarity values (both sides reduce
to the same IEEE-754 divisions).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import chain, count

import numpy as np

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from .edit import edit_similarity
from .tokenize import normalize, qgram_tokens, word_tokens
from .vectors import SimilarityConfig

#: Soft cap (bytes) on the per-chunk temporary of the pairwise AND kernel.
_CHUNK_BYTES = 32 << 20

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

    One unbuffered ``bitwise_or.at`` ORs each token's one-bit mask into its
    (row, word) cell, so no sort groups the cells first and a repeated
    (row, token) entry just sets its bit again.
    """
    num_words = max(1, (vocab_size + 63) // 64)
    bits = np.zeros(num_rows * num_words, dtype=np.uint64)
    if token_ids.size:
        np.bitwise_or.at(
            bits,
            row_of_token * num_words + (token_ids >> 6),
            np.uint64(1) << (token_ids & 63).astype(np.uint64),
        )
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
            # of hash randomization, and the same ids a PostingJoin hands
            # out (see from_join).
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

    @classmethod
    def from_join(cls, join: "PostingJoin", texts: Sequence[str]) -> "TokenIndex":
        """The index of *texts*, read off a join that holds their token sets.

        Record ``r`` of *join* must hold the tokens of ``texts[r]``.  The
        join interns each record's tokens in sorted order, as the generic
        constructor does for each new distinct text, so its token ids, and
        hence these packed rows, equal ``TokenIndex(texts, tokenizer)``'s
        without tokenizing anything again.
        """
        unique, inverse = _intern_texts(texts)
        self = cls.__new__(cls)
        self.row_of_text = inverse
        self.vocab_size = len(join.vocab)
        lengths = np.fromiter(
            map(len, join.postings), dtype=np.int64, count=self.vocab_size
        )
        records = np.fromiter(
            chain.from_iterable(join.postings),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        tokens = np.repeat(np.arange(self.vocab_size, dtype=np.int64), lengths)
        # Records sharing a text OR the same bits into its row.
        self.bits = _pack_rows(
            len(unique), inverse[records], tokens, self.vocab_size
        )
        self.sizes = _popcount_rows(self.bits)
        return self

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
            # np.take copies whole rows, faster than indexing with an array.
            band = np.take(self.bits, left[start:stop], axis=0) & np.take(
                self.bits, right[start:stop], axis=0
            )
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
# Edit-similarity runner: dedup + cache + length buckets
# --------------------------------------------------------------------------- #

_cached_edit_similarity = lru_cache(maxsize=1 << 15)(edit_similarity)


def batch_edit_similarities(
    texts: Sequence[str],
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Edit similarity ``EDS(texts[left[i]], texts[right[i]])`` for all i.

    The quadratic DP cannot be vectorized the way set intersections can, so
    the batch win comes from doing strictly less work: string pairs are
    deduplicated (attribute columns repeat values heavily on ER data),
    identical-string pairs short-circuit to 1.0, survivors are processed in
    ascending max-length *buckets* (cheap problems first), and a shared
    ``lru_cache`` absorbs repeats across calls.
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
        cached = _cached_edit_similarity
        for k in order:
            sims[k] = cached(values[unique_lo[k]], values[unique_hi[k]])
    return sims[scatter]


# --------------------------------------------------------------------------- #
# batch_similarity_matrix: the fast path of similarity_matrix
# --------------------------------------------------------------------------- #


def _pair_array(pairs: Sequence[Pair]) -> np.ndarray:
    """The pairs as an ``(n, 2)`` int64 array.

    When every pair has two items they are read straight into the array,
    about twice as fast as ``np.asarray`` over a list of tuples; anything
    else takes ``np.asarray`` and its checks, as before.

    Raises:
        ConfigurationError: unless the pairs make an ``(n, 2)`` array.
    """
    try:
        lengths = set(map(len, pairs))
    except TypeError:  # an item that is not a pair
        lengths = set()
    if lengths == {2}:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        return flat.reshape(len(pairs), 2)
    pair_array = np.asarray(pairs, dtype=np.int64)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ConfigurationError(f"pairs must be (i, j) tuples, got shape {pair_array.shape}")
    return pair_array


def batch_similarity_matrix(
    table: Table,
    pairs: Sequence[Pair],
    config: SimilarityConfig,
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
    """
    config.for_table(table)
    matrix = np.empty((len(pairs), config.num_attributes), dtype=np.float64)
    if not len(pairs):  # explicit empty-input fast path
        return matrix
    pair_array = _pair_array(pairs)
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
            matrix[:, k] = batch_edit_similarities(column, left, right)
        else:  # pragma: no cover - future functions fall back to scalar
            from .vectors import resolve_function

            function = resolve_function(name)
            matrix[:, k] = [function(column[i], column[j]) for i, j in zip(left, right)]
    tau = config.attribute_threshold
    return np.where(matrix >= tau, matrix, 0.0)


# --------------------------------------------------------------------------- #
# Sparse record-level Jaccard self-join (the pruning step, vectorized)
# --------------------------------------------------------------------------- #


#: Records a :class:`PostingJoin` probe counts before it verifies their
#: candidates with one division: per-record numpy calls give way to
#: per-block ones, while the candidates held at once stay bounded.
_JOIN_BLOCK = 256


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


class PostingJoin:
    """The record-level Jaccard self-join, resumable batch by batch.

    An inverted-list join: each record ``b`` gathers the posting lists of
    its tokens cut at ``b`` (all earlier records sharing at least one
    token) and obtains every intersection size in one ``np.bincount``.
    Only the candidates sharing at least :func:`_overlap_floor` tokens
    can pass, so only they are kept, with their overlaps, and verified
    once per block of :data:`_JOIN_BLOCK` records.  The verification
    ``∩ / ∪ >= t`` is a vectorized int/int division — the exact same IEEE
    operation as the scalar :func:`jaccard` — so the result matches the
    naive quadratic scan pair for pair.  Records with *empty* token sets
    follow the scalar convention (two empty sets have similarity 1.0) and
    are paired among themselves.

    The posting lists outlive a call: :meth:`extend` appends records and
    probes only those, so extending batch after batch finds exactly the
    pairs one extend over all the records finds.  Each record's tokens
    are interned in sorted order, so the token ids do not depend on how
    the process hashes strings.

    Args:
        threshold: the pruning bound ``tau``, in ``(0, 1]``.
    """

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.vocab: dict[str, int] = {}  # token -> id, in first-seen order
        self.postings: list[list[int]] = []  # per token id, its records
        self.sizes = np.zeros(0, dtype=np.int64)  # per record, its tokens
        self._empties: list[int] = []  # the records without tokens

    def __len__(self) -> int:
        return self.sizes.size

    def extend(
        self, token_sets: Sequence[frozenset[str]], probe: bool = True
    ) -> list[Pair]:
        """Add one record per token set; the pairs they make, sorted.

        Each new record is paired with every earlier record: those of
        earlier calls and those before it in *token_sets*.  With
        ``probe=False`` the records are only indexed, and nothing is
        returned (a restored stream's records were paired before).
        """
        first = len(self)
        vocab, postings, empties = self.vocab, self.postings, self._empties
        intern = vocab.setdefault
        rows = [
            [intern(token, len(vocab)) for token in sorted(tokens)]
            for tokens in token_sets
        ]
        postings.extend([] for _ in range(len(vocab) - len(postings)))
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        self.sizes = np.concatenate((self.sizes, sizes))
        old_empties = len(empties)
        # ``cuts[k][i]`` is how many records before record ``first + k``
        # hold its i-th token, so ``postings[token][:cut]`` is exactly the
        # index state a serial scan would have at that record.
        cuts: list[list[int]] = []
        for record_id, ids in enumerate(rows, first):
            if not ids:
                empties.append(record_id)
            if probe:
                cuts.append([len(postings[token]) for token in ids])
            for token in ids:
                postings[token].append(record_id)
        if not probe:
            return []

        need = _overlap_floor(int(sizes.max(initial=0)), self.threshold).tolist()
        # One array per posting list the new records reach.
        arrays = [
            np.asarray(posting, dtype=np.int64)
            if posting and posting[-1] >= first
            else None
            for posting in postings
        ]
        # jaccard(∅, ∅) == 1.0 >= threshold for every valid threshold, so
        # each new empty record pairs with every empty record before it.
        found = [
            (np.asarray(empties[:k], dtype=np.int64), np.full(k, empties[k], dtype=np.int64))
            for k in range(old_empties, len(empties))
        ]
        for start in range(0, len(rows), _JOIN_BLOCK):
            stop = start + _JOIN_BLOCK
            found.append(
                self._probe_block(
                    first + start, rows[start:stop], cuts[start:stop], arrays, need
                )
            )
        if not found:
            return []
        left = np.concatenate([block for block, _ in found])
        right = np.concatenate([block for _, block in found])
        order = np.lexsort((right, left))
        return list(zip(left[order].tolist(), right[order].tolist()))

    def _probe_block(
        self,
        first: int,
        rows: list[list[int]],
        cuts: list[list[int]],
        arrays: list[np.ndarray | None],
        need: list[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pairs records ``first, first + 1, ...`` (token ids *rows*) make.

        Each record only counts its overlaps and keeps the candidates at or
        above its overlap floor; the block's candidates are then verified
        with one division.  A record's candidates are earlier records, so
        the block buffers fewer than ``len(rows)`` candidates per record of
        the join, however many records the whole extend adds.
        """
        owners: list[int] = []
        candidates: list[np.ndarray] = []
        overlaps: list[np.ndarray] = []
        for record_id, ids, record_cuts in zip(count(first), rows, cuts):
            parts = [
                arrays[token][:cut] for token, cut in zip(ids, record_cuts) if cut
            ]
            if not parts:
                continue
            counts = np.bincount(np.concatenate(parts))
            kept = (counts >= need[len(ids)]).nonzero()[0]
            owners.append(record_id)
            candidates.append(kept)
            overlaps.append(counts[kept])
        if not owners:
            none = np.zeros(0, dtype=np.int64)
            return none, none
        left = np.concatenate(candidates)
        right = np.repeat(
            np.asarray(owners, dtype=np.int64),
            np.fromiter(map(len, candidates), dtype=np.int64, count=len(owners)),
        )
        inter = np.concatenate(overlaps)
        union = self.sizes[left] + self.sizes[right] - inter
        kept = inter / union >= self.threshold
        return left[kept], right[kept]

    def truncate(self, records: int) -> None:
        """Forget every record from *records* on, as if never added.

        Token ids are handed out in record order, so the tokens first seen
        in the forgotten records are the vocabulary's tail, and exactly
        their posting lists run empty.
        """
        for posting in self.postings:
            while posting and posting[-1] >= records:
                posting.pop()
        while self.postings and not self.postings[-1]:
            self.postings.pop()
            self.vocab.popitem()
        self.sizes = self.sizes[:records]
        del self._empties[bisect_left(self._empties, records) :]


def sparse_jaccard_join(
    token_sets: Sequence[frozenset[str]], threshold: float
) -> list[Pair]:
    """All pairs with ``jaccard(token_sets[a], token_sets[b]) >= threshold``, sorted.

    One :meth:`PostingJoin.extend` over every record.
    """
    return PostingJoin(threshold).extend(token_sets)
