"""Worker model for the simulated crowd.

A worker answers a pair-comparison question ("do these two records refer to
the same entity?") correctly with probability equal to its accuracy — the
model the paper uses for its simulation experiments (§7.2.2), where workers
are generated "with quality in 70%-80%, 80%-90%, and above 90%".

Answers are deterministic per ``(worker, pair)`` under a fixed seed and do
not depend on the order in which questions are asked.  This reproduces the
paper's AMT protocol in which all pairs were crowdsourced once so that
"if different algorithms ask the same pair, they will use the same answer".

Every draw comes from its own ``np.random.default_rng(key)`` stream: the
worker panel of a pair from ``(seed, 0xA551, i, j)``, a worker's vote from
``(seed, worker_id, i, j)``.  :meth:`WorkerPool.assign` and
:meth:`Worker.answer` build those generators one at a time (the per-stream
reference).  :meth:`WorkerPool.assign_many` and :func:`answer_many` answer
a whole crowd round with a vectorized kernel that reproduces numpy's
``SeedSequence -> PCG64`` streams bit for bit, so a pair's panel and votes
are the same whichever path drew them, and still do not depend on which
other pairs share its round.  Batches of fewer than
:data:`BATCH_DRAW_MIN_PAIRS` pairs, and the few inputs the kernel does not
reproduce, take the per-stream path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError

#: Accuracy bands used throughout the paper's evaluation, keyed by the label
#: that appears in its figures ("70" = the 70%-80% approval band, etc.).
ACCURACY_BANDS: dict[str, tuple[float, float]] = {
    "70": (0.70, 0.80),
    "80": (0.80, 0.90),
    "90": (0.90, 1.00),
}


#: Worker behaviours: honest workers follow their accuracy; spammers ignore
#: the question entirely (§2.2.2's "malicious workers" that quality control
#: exists to catch).
BEHAVIORS = ("honest", "always-yes", "always-no", "random")


@dataclass(frozen=True)
class Worker:
    """One simulated crowd worker.

    Attributes:
        worker_id: stable identifier within its pool.
        accuracy: probability of answering any single question correctly
            (honest workers only).
        seed: base seed shared by the pool; per-answer randomness is derived
            from ``(seed, worker_id, pair)`` so answers are order-independent.
        behavior: ``"honest"`` (default), or a spammer type — ``"always-yes"``,
            ``"always-no"``, or ``"random"`` (coin flip regardless of truth).
    """

    worker_id: int
    accuracy: float
    seed: int
    behavior: str = "honest"

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigurationError(
                f"worker accuracy must be in [0, 1], got {self.accuracy}"
            )
        if self.behavior not in BEHAVIORS:
            raise ConfigurationError(
                f"unknown behavior {self.behavior!r}; known: {BEHAVIORS}"
            )

    def answer(self, pair: Pair, truth: bool, difficulty: float = 1.0) -> bool:
        """Return this worker's Yes/No vote on *pair* given the ground truth.

        Args:
            pair: the question (used only to derive per-answer randomness).
            truth: whether the records really refer to the same entity.
            difficulty: scales an honest worker's error probability.  1.0
                (the default) is the paper's §7.2.2 simulation model, where
                a worker errs with probability ``1 - accuracy`` on *every*
                pair.  Values < 1 model easy pairs (real crowds almost never
                mistake two obviously different restaurants); values up to
                2 model genuinely ambiguous pairs.  The effective error is
                clamped to [0, 0.5].  Spammers ignore difficulty.
        """
        if difficulty < 0:
            raise ConfigurationError(f"difficulty must be >= 0, got {difficulty}")
        if self.behavior == "always-yes":
            return True
        if self.behavior == "always-no":
            return False
        rng = np.random.default_rng((self.seed, self.worker_id, pair[0], pair[1]))
        if self.behavior == "random":
            return bool(rng.random() < 0.5)
        error = min(0.5, (1.0 - self.accuracy) * difficulty)
        correct = rng.random() >= error
        return truth if correct else not truth


class WorkerPool:
    """A pool of workers whose accuracies are drawn from a band.

    Args:
        size: number of workers in the pool.
        accuracy_range: inclusive-exclusive ``(low, high)`` band, or an
            :data:`ACCURACY_BANDS` label such as ``"80"``.
        seed: RNG seed for both accuracy draws and per-answer randomness.
        spammer_fraction: fraction of the pool replaced by spammers.
        spammer_behavior: what the spammers do (``"random"``,
            ``"always-yes"``, or ``"always-no"``).
    """

    def __init__(
        self,
        size: int = 50,
        accuracy_range: tuple[float, float] | str = "90",
        seed: int = 0,
        spammer_fraction: float = 0.0,
        spammer_behavior: str = "random",
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        if isinstance(accuracy_range, str):
            try:
                accuracy_range = ACCURACY_BANDS[accuracy_range]
            except KeyError:
                known = ", ".join(sorted(ACCURACY_BANDS))
                raise ConfigurationError(
                    f"unknown accuracy band {accuracy_range!r}; known: {known}"
                ) from None
        low, high = accuracy_range
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigurationError(
                f"accuracy range must satisfy 0 <= low <= high <= 1, got {accuracy_range}"
            )
        if not 0.0 <= spammer_fraction <= 1.0:
            raise ConfigurationError(
                f"spammer_fraction must be in [0, 1], got {spammer_fraction}"
            )
        if spammer_behavior not in ("random", "always-yes", "always-no"):
            raise ConfigurationError(
                f"spammer_behavior must be a spammer type, got {spammer_behavior!r}"
            )
        self.seed = seed
        rng = np.random.default_rng((seed, 0xACC))
        accuracies = low + (high - low) * rng.random(size)
        num_spammers = round(size * spammer_fraction)
        spammer_ids = set(
            int(i) for i in rng.choice(size, size=num_spammers, replace=False)
        )
        self.workers = [
            Worker(
                worker_id=index,
                accuracy=float(accuracy),
                seed=seed,
                behavior=spammer_behavior if index in spammer_ids else "honest",
            )
            for index, accuracy in enumerate(accuracies)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def assign(self, pair: Pair, count: int) -> list[Worker]:
        """Pick *count* distinct workers for *pair*, deterministically.

        The draw is seeded by the pair so the same workers answer the same
        pair no matter which algorithm asks, or in which order.
        """
        if count > len(self.workers):
            raise ConfigurationError(
                f"cannot assign {count} workers from a pool of {len(self.workers)}"
            )
        rng = np.random.default_rng((self.seed, 0xA551, pair[0], pair[1]))
        chosen = rng.choice(len(self.workers), size=count, replace=False)
        return [self.workers[int(index)] for index in chosen]

    def assign_many(self, pairs: Sequence[Pair], count: int) -> list[list[Worker]]:
        """:meth:`assign` for every pair of a crowd round, in one kernel call.

        Row ``i`` equals ``self.assign(pairs[i], count)``.  Batches below
        :data:`BATCH_DRAW_MIN_PAIRS`, keys outside ``[0, 2**64)`` and
        numpy's tail-shuffle branch (pools over 10,000 workers asked for
        more than a fiftieth of them) take the per-stream path.
        """
        if count > len(self.workers):
            raise ConfigurationError(
                f"cannot assign {count} workers from a pool of {len(self.workers)}"
            )
        size = len(self.workers)
        keys = None
        if (
            len(pairs) >= BATCH_DRAW_MIN_PAIRS
            and (size <= 10_000 or count <= size // 50)
            and _in_key_range((self.seed,))
        ):
            keys = _draw_keys(pairs, np.arange(len(pairs)), self.seed, 0xA551)
        if keys is None:
            return [self.assign(pair, count) for pair in pairs]
        pick = self.workers.__getitem__
        return [
            list(map(pick, row)) for row in _Streams(keys).choice(size, count).tolist()
        ]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([worker.accuracy for worker in self.workers]))


#: Fewest uncached pairs a crowd round needs before the vectorized kernel
#: draws it.  Set from the measured crossover (DESIGN.md section 7, "crowd
#: round"): the kernel's fixed cost, about 0.7 ms, ties the per-stream
#: generators (about 0.12 ms per pair) at six pairs and wins from eight.
BATCH_DRAW_MIN_PAIRS = 8

_BEHAVIOR_CODES = {behavior: code for code, behavior in enumerate(BEHAVIORS)}
_panel_fields = attrgetter("seed", "worker_id", "accuracy", "behavior")


def answer_many(
    panels: Sequence[Sequence[Worker]],
    pairs: Sequence[Pair],
    truths: Sequence[bool],
    difficulties: Sequence[float],
) -> list[list[bool]]:
    """Every panel's votes on its pair, in one kernel call.

    Row ``i`` equals ``[w.answer(pairs[i], truths[i], difficulties[i]) for
    w in panels[i]]``, bit for bit, including Python's ``min(0.5, error)``
    (which keeps 0.5 for a NaN difficulty).  Batches below
    :data:`BATCH_DRAW_MIN_PAIRS` and keys outside ``[0, 2**64)`` take that
    per-stream path.
    """
    difficulty = np.asarray(difficulties, dtype=np.float64)
    negative = np.flatnonzero(difficulty < 0)
    if negative.size:
        raise ConfigurationError(
            f"difficulty must be >= 0, got {difficulty[negative[0]]}"
        )
    sizes = [len(panel) for panel in panels]
    flat = [worker for panel in panels for worker in panel]
    keys = None
    if len(pairs) >= BATCH_DRAW_MIN_PAIRS and flat:
        # Panels repeat a few pool members: read each member's fields once.
        members = {id(worker): worker for worker in flat}
        slot = {key: index for index, key in enumerate(members)}
        member = np.fromiter(map(slot.__getitem__, map(id, flat)), np.intp, len(flat))
        seeds, ids, accuracy, behaviors = zip(*map(_panel_fields, members.values()))
        owner = np.repeat(np.arange(len(pairs)), sizes)
        if _in_key_range(seeds + ids):
            keys = _draw_keys(
                pairs,
                owner,
                np.array(seeds, dtype=_U64)[member],
                np.array(ids, dtype=_U64)[member],
            )
    if keys is None:
        return [
            [worker.answer(pair, truth, d) for worker in panel]
            for panel, pair, truth, d in zip(panels, pairs, truths, difficulties)
        ]
    code = np.array([_BEHAVIOR_CODES[b] for b in behaviors], dtype=np.int8)[member]
    votes = code == _BEHAVIOR_CODES["always-yes"]
    random = code == _BEHAVIOR_CODES["random"]
    draws = np.flatnonzero(random | (code == _BEHAVIOR_CODES["honest"]))
    if draws.size:
        uniform = _Streams(keys[draws]).random()
        owner = owner[draws]
        error = (1.0 - np.array(accuracy)[member[draws]]) * difficulty[owner]
        # min(0.5, error) keeps 0.5 unless error < 0.5, so NaN keeps 0.5.
        correct = uniform >= np.where(error < 0.5, error, 0.5)
        votes[draws] = np.where(
            random[draws],
            uniform < 0.5,
            np.asarray(truths, dtype=bool)[owner] == correct,
        )
    flat_votes = votes.tolist()
    ends = np.cumsum(sizes).tolist()
    return [flat_votes[end - size : end] for size, end in zip(sizes, ends)]


# --------------------------------------------------------------------------- #
# The batched draw kernel: numpy's SeedSequence -> PCG64, many keys at once
# --------------------------------------------------------------------------- #

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_KEY_LIMIT = 1 << 64

# O'Neill's seed_seq hashing, as numpy's SeedSequence (pool of four words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_POOL = 4

# PCG64's 128-bit LCG multiplier, as 64-bit halves and the low half's
# 32-bit halves (for the 64 x 64 -> 128-bit product).
_MULT_HI = _U64(0x2360ED051FC65DA4)
_MULT_LO = _U64(0x4385DF649FCCF645)
_MULT_LO_0 = _MULT_LO & _LOW32
_MULT_LO_1 = _MULT_LO >> _U64(32)


def _in_key_range(values: Sequence[int]) -> bool:
    """Whether every key component is in ``[0, 2**64)``.

    numpy rejects negative entropy, and wider ints hash as more words than
    the kernel's two limbs hold: such keys take the per-stream path.
    """
    return min(values) >= 0 and max(values) < _KEY_LIMIT


def _draw_keys(pairs: Sequence[Pair], rows: np.ndarray, seeds, ids) -> np.ndarray | None:
    """Key rows ``(seeds[k], ids[k], *pairs[rows[k]])`` for :class:`_Streams`.

    *seeds* and *ids* are arrays over *rows* or single values (already in
    range); None when a pair id is out of :func:`_in_key_range`.
    """
    if not _in_key_range([value for pair in pairs for value in pair]):
        return None
    keys = np.empty((len(rows), 4), dtype=_U64)
    keys[:, 0] = seeds
    keys[:, 1] = ids
    keys[:, 2:] = np.array(pairs, dtype=_U64)[rows]
    return keys


def _consts(start: int, mult: int, count: int) -> np.ndarray:
    """The seed_seq hash-constant sequence ``start * mult**k`` (k = 0..count)."""
    out = [start]
    for _ in range(count):
        out.append((out[-1] * mult) & 0xFFFFFFFF)
    return np.array(out, dtype=_U32)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _U32(16))


def _seed_state(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``, per column.

    *words* holds the entropy's uint32 words, one array per position; every
    key of the call has the same number of words.
    """
    extra = max(0, len(words) - _POOL)
    consts = _consts(_INIT_A, _MULT_A, _POOL * _POOL + extra * _POOL)[:, None]
    size = len(words[0])
    entropy = np.zeros((max(_POOL, len(words)), size), dtype=_U32)
    entropy[: len(words)] = words
    pool = _hashmix(entropy[:_POOL], consts[:_POOL], consts[1 : _POOL + 1])
    k = _POOL
    for source in range(_POOL):
        targets = [target for target in range(_POOL) if target != source]
        mixed = _hashmix(pool[source], consts[k : k + 3], consts[k + 1 : k + 4])
        pool[targets] = _mix(pool[targets], mixed)
        k += 3
    for word in entropy[_POOL:]:
        mixed = _hashmix(word, consts[k : k + _POOL], consts[k + 1 : k + _POOL + 1])
        pool = _mix(pool, mixed)
        k += _POOL
    state_consts = _consts(_INIT_B, _MULT_B, 2 * _POOL)[:, None]
    state = _hashmix(
        pool[np.arange(2 * _POOL) % _POOL], state_consts[:-1], state_consts[1:]
    ).astype(_U64)
    return [state[2 * word] | (state[2 * word + 1] << _U64(32)) for word in range(4)]


def _lemire_threshold(bound: int) -> int:
    """Lemire's rejection threshold for a draw in ``[0, bound]``."""
    return (0xFFFFFFFF - bound) % (bound + 1)


class _Streams:
    """``np.random.default_rng(key)`` for many keys, advanced in lockstep.

    Row ``r`` reproduces ``default_rng(tuple(keys[r]))`` bit for bit for
    the draws offered here: ``random()``, ``bounded(b)`` (numpy's
    ``integers(0, b, endpoint=True, dtype=np.uint32)``) and
    ``choice(size, count)`` (``replace=False``, Floyd's branch).  The
    128-bit PCG64 state is kept as two uint64 limbs; 32-bit draws are
    buffered halves of 64-bit outputs, exactly as numpy's PCG64 does.
    """

    def __init__(self, keys: np.ndarray) -> None:
        count = len(keys)
        self._hi = np.empty(count, dtype=_U64)
        self._lo = np.empty(count, dtype=_U64)
        self._inc_hi = np.empty(count, dtype=_U64)
        self._inc_lo = np.empty(count, dtype=_U64)
        self._has_half = np.zeros(count, dtype=bool)
        self._half = np.zeros(count, dtype=_U64)
        # Keys with the same word layout (which components need two
        # uint32 words) are hashed together.
        layouts = (keys > _LOW32) @ (1 << np.arange(keys.shape[1]))
        for layout in np.flatnonzero(np.bincount(layouts)).tolist():
            rows = np.flatnonzero(layouts == layout) if layouts.any() else slice(None)
            words: list[np.ndarray] = []
            for column in range(keys.shape[1]):
                words.append((keys[rows, column] & _LOW32).astype(_U32))
                if layout >> column & 1:
                    words.append((keys[rows, column] >> _U64(32)).astype(_U32))
            seed_hi, seed_lo, inc_hi, inc_lo = _seed_state(words)
            # pcg64_set_seed: inc = (initseq << 1) | 1; state = inc; state
            # += initstate; then one step.
            self._inc_hi[rows] = (inc_hi << _U64(1)) | (inc_lo >> _U64(63))
            self._inc_lo[rows] = (inc_lo << _U64(1)) | _U64(1)
            self._lo[rows] = self._inc_lo[rows] + seed_lo
            self._hi[rows] = (
                self._inc_hi[rows] + seed_hi + (self._lo[rows] < seed_lo)
            )
        self._next64(slice(None))

    def _next64(self, rows) -> np.ndarray:
        """One LCG step on *rows*, then PCG64's XSL-RR output."""
        hi, lo = self._hi[rows], self._lo[rows]
        inc_lo = self._inc_lo[rows]
        # state * multiplier + increment, mod 2**128, in 64-bit limbs.
        lo_0, lo_1 = lo & _LOW32, lo >> _U64(32)
        p01, p10 = lo_0 * _MULT_LO_1, lo_1 * _MULT_LO_0
        middle = ((lo_0 * _MULT_LO_0) >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
        new_hi = lo_1 * _MULT_LO_1 + (p01 >> _U64(32)) + (p10 >> _U64(32))
        new_hi += (middle >> _U64(32)) + hi * _MULT_LO + lo * _MULT_HI
        new_lo = lo * _MULT_LO + inc_lo
        new_hi += self._inc_hi[rows] + (new_lo < inc_lo)
        self._hi[rows], self._lo[rows] = new_hi, new_lo
        folded = new_hi ^ new_lo
        rotation = new_hi >> _U64(58)
        return (folded >> rotation) | (folded << ((_U64(64) - rotation) & _U64(63)))

    def _next32(self, rows) -> np.ndarray:
        """PCG64's buffered 32-bit draw: a 64-bit output's low, then high half."""
        buffered = self._has_half[rows]
        if buffered.all():
            self._has_half[rows] = False
            return self._half[rows].copy()
        if not buffered.any():
            value = self._next64(rows)
            self._half[rows] = value >> _U64(32)
            self._has_half[rows] = True
            return value & _LOW32
        rows = np.arange(len(self._hi))[rows]
        buffered = buffered.copy()  # a view when rows was a slice
        out = np.empty(len(rows), dtype=_U64)
        out[buffered] = self._next32(rows[buffered])
        out[~buffered] = self._next32(rows[~buffered])
        return out

    def random(self) -> np.ndarray:
        """``Generator.random()`` per row."""
        return (self._next64(slice(None)) >> _U64(11)) * (1.0 / 9007199254740992.0)

    def bounded(self, bound: int) -> np.ndarray:
        """A Lemire draw in ``[0, bound]`` per row (``bound < 2**32``)."""
        if bound == 0:
            return np.zeros(len(self._hi), dtype=_U64)
        if bound == 0xFFFFFFFF:
            return self._next32(slice(None))
        span = _U64(bound + 1)
        scaled = self._next32(slice(None)) * span
        threshold = _U64(_lemire_threshold(bound))
        rejected = np.flatnonzero((scaled & _LOW32) < threshold)
        while rejected.size:
            scaled[rejected] = self._next32(rejected) * span
            rejected = rejected[(scaled[rejected] & _LOW32) < threshold]
        return scaled >> _U64(32)

    def choice(self, size: int, count: int) -> np.ndarray:
        """``Generator.choice(size, count, replace=False)`` per row.

        Floyd's sampling (a value already taken is replaced by the loop
        bound ``j``), then the Fisher-Yates pass numpy's ``shuffle=True``
        applies to the sample.
        """
        rows = np.arange(len(self._hi))
        chosen = np.empty((len(rows), count), dtype=np.int64)
        for position, bound in enumerate(range(size - count, size)):
            value = self.bounded(bound).astype(np.int64)
            taken = (chosen[:, :position] == value[:, None]).any(axis=1)
            chosen[:, position] = np.where(taken, bound, value)
        for position in range(count - 1, 0, -1):
            other = self.bounded(position).astype(np.int64)
            swapped = chosen[rows, other]
            chosen[rows, other] = chosen[:, position]
            chosen[:, position] = swapped
        return chosen
