"""Frame potentials of the stabilizer-state ensemble, four ways.

Two exact engines return identical rationals by construction of the theory:

* a recursion over n with base case (d^{2-t}+1)/((d+1)d) and step factor
  (d^{k-(t-2)}+1)/(d(d^{k+1}+1)),
* the paper's intersection count S(d,n)^{-1} sum_{k=0..n} kappa(d,n,k) *
  d^{n-k} * d^{(k-n)t}.

Two floating-point engines recompute the same quantity from realized state
vectors: the full double sum over pairs, and the single fixed-reference sum
that orbit symmetry makes equivalent. Neither starts a thread (numpy's BLAS
may), and every sum uses a fixed pairwise-tree order shaped only by the length
of the list summed, so results do not depend on how rows are blocked.

Both take a list of moments t: the overlaps |<x_i, x_j>|^2 are computed once,
and only the power and the tree run once per t, with the same bits as one call
per t. Neither holds an array that grows with S beyond the states themselves,
or with the number of moments: their working memory is one budget, at any
number of moments, sized by errors._per_batch. The brute-force engine reads the
whole (S, d^n) stack of state vectors, a block of rows at a time, and keeps only
each block's squared overlaps and its (t, row) totals. The fixed-reference sum
needs only the reference overlaps: frame_potentials_fixed_state streams the
states a block at a time from stabilizer.state_blocks and powers them a chunk
at a time. Both feed their sums to _chunked_tree, which reduces aligned chunks
as they arrive and gives the bits of the tree over all of them; the same budget
sizes its chunk, so more moments make it shorter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import _require_space, kappa, stabilizer_count, welch_bound
from .errors import DEFAULT_MATRIX_CAP, DEFAULT_PAIR_CAP, DEFAULT_STATE_CAP, _batches, _per_batch, check_cap
from .stabilizer import state_blocks, state_vectors

_OVERLAP_BYTES = 32  # peak bytes per overlap in _row_sums: its |amp|^2, one power and the tree's levels
_TREE_BYTES = 32  # peak bytes per (t, value) in a _chunked_tree chunk, 26 measured: its powers, their stack, the tree


def _validate(d: int, n: int, t: int) -> None:
    _require_space(d, n)
    if type(t) is not int or t < 1:
        raise ValueError(f"t must be a positive int, got {t!r}")


def _validate_ts(d: int, n: int, ts: Sequence[int]) -> None:
    """_validate for each t of a numeric engine's non-empty list, before any state is realized."""
    if not ts:
        raise ValueError("needs at least one t")
    for t in ts:
        _validate(d, n, t)


def frame_potential_recursion(d: int, n: int, t: int) -> Fraction:
    """Exact frame potential via the recursion over the dimension exponent."""
    _validate(d, n, t)
    value = (Fraction(d) ** (2 - t) + 1) / ((d + 1) * d)
    for k in range(1, n):
        value *= (Fraction(d) ** (k - (t - 2)) + 1) / (d * (d ** (k + 1) + 1))
    return value


def frame_potential_combinatorial(d: int, n: int, t: int) -> Fraction:
    """Exact frame potential via the paper's count: kappa(d,n,k) d^{n-k} states have overlap d^{k-n} with |M_0, 0>."""
    _validate(d, n, t)
    total = sum(kappa(d, n, k) * d ** (n - k) * Fraction(d) ** ((k - n) * t) for k in range(n + 1))
    return total / stabilizer_count(d, n)


def _pairwise_tree(vals: np.ndarray) -> np.ndarray:
    """Fixed binary-tree reduction along the last axis of a non-empty array.

    Each level adds adjacent pairs and carries an odd tail up unchanged. The
    tree shape depends only on the length of the axis, never on how the values
    were produced, which is what makes the numeric engines invariant under row
    blocking.
    """
    while vals.shape[-1] > 1:
        width = vals.shape[-1]
        pairs = vals[..., 0 : width - 1 : 2] + vals[..., 1::2]
        vals = np.concatenate((pairs, vals[..., -1:]), axis=-1) if width % 2 else pairs
    return vals[..., 0]


def _tree_chunk(moments: int) -> int:
    """The values per t in one _chunked_tree chunk: the largest power of two whose (t, value) chunk fits one batch."""
    return 1 << (_per_batch(_TREE_BYTES * moments).bit_length() - 1)


def _chunk_sums(pieces: Iterable[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    """The tree sum of each aligned ``chunk`` of values, the pieces joined on their last axis; a short last one too."""
    held, size = [], 0  # the chunk so far, as views of the pieces, and its length
    for piece in pieces:
        start = 0
        while start < piece.shape[-1]:
            take = min(chunk - size, piece.shape[-1] - start)
            held.append(piece[..., start : start + take])
            size, start = size + take, start + take
            if size == chunk:
                yield _pairwise_tree(np.concatenate(held, axis=-1))
                held, size = [], 0
    if held:
        yield _pairwise_tree(np.concatenate(held, axis=-1))


def _chunked_tree(pieces: Iterable[np.ndarray], chunk: int) -> np.ndarray:
    """_pairwise_tree over the pieces joined along their last axis, bit for bit, holding one chunk at a time.

    The values are cut into aligned chunks of ``chunk``, a power of two, as
    they stream in, and each is reduced by the tree on its own, a short last
    one too: the tree's pairs never cross an aligned boundary, and until a
    short last chunk is one value, its levels are the whole tree's odd tails.
    The chunk sums are added as they arrive, as a binary counter adds: two
    finished subtrees of one size become one of twice that size, and the
    whole tree adds what is left from the right, its odd tails again. So it
    holds one chunk and one sum per size. The engines size the chunk by
    _tree_chunk from the number of moments, the rows of the pieces, so the
    one working-memory budget holds at any number of moments.
    """
    subtrees = []  # (chunks summed, their sum) of each finished subtree, sizes falling
    for total in _chunk_sums(pieces, chunk):
        size = 1
        while subtrees and subtrees[-1][0] == size:
            total, size = subtrees.pop()[1] + total, 2 * size
        subtrees.append((size, total))
    total = subtrees.pop()[1]
    while subtrees:
        total = subtrees.pop()[1] + total
    return total


def _state_stack(vectors, count: int, d: int, n: int) -> np.ndarray:
    """The given vectors as one (S, d^n) array, rows in order (an array is not copied), once its shape is checked."""
    stack = np.asarray(vectors)
    if stack.shape != (count, d**n):
        raise ValueError(f"expected all {count} state vectors, of length {d**n}: got shape {stack.shape}")
    return stack


def _squared_overlaps(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """|<x, y>|^2 for each x in rows (axis 0) and each row y of block (axis 1): both numeric engines' one row kernel.

    Each row's overlaps come from their own product with the whole block: a
    single matrix product over the rows rounds differently. Only their
    squared moduli are kept.
    """
    sq = np.empty((len(rows), len(block)))
    for r, row in enumerate(rows):
        amps = block @ np.conj(row)
        sq[r] = amps.real**2 + amps.imag**2
    return sq


def _row_sums(stack: np.ndarray, rows: slice, ts: Sequence[int]) -> np.ndarray:
    """sum_j |<x_i, x_j>|^{2t} for each t in ts (axis 0) and each i in rows, each row by the fixed tree.

    The block's squared overlaps, its powers and the tree take _OVERLAP_BYTES
    per overlap at the peak, and the totals 16 bytes per (t, row): each t's row
    and their stack.
    """
    sq = _squared_overlaps(stack[rows], stack)
    return np.array([_pairwise_tree(sq**t) for t in ts])


def frame_potentials_bruteforce(
    d: int,
    n: int,
    ts: Sequence[int],
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
    vectors: Sequence[np.ndarray] | np.ndarray | None = None,
) -> list[float]:
    """S^{-2} sum_{i,j} |<x_i, x_j>|^{2t} for each t in ts, from realized state vectors.

    ``vectors``, when given, must hold the realized state vectors in
    enumeration order. The pair cap is checked first; without vectors,
    state_vectors then checks the state and matrix caps.
    """
    _validate_ts(d, n, ts)
    count = stabilizer_count(d, n)
    check_cap("brute-force state pairs", count * count, pair_cap)
    if vectors is None:
        stack = state_vectors(d, n, state_cap=state_cap, matrix_cap=matrix_cap)
    else:
        stack = _state_stack(vectors, count, d, n)
    totals = (_row_sums(stack, rows, ts) for rows in _batches(0, count, _OVERLAP_BYTES * count + 16 * len(ts)))
    return [float(total) / (count * count) for total in _chunked_tree(totals, _tree_chunk(len(ts)))]


def frame_potential_bruteforce(d: int, n: int, t: int, **keywords) -> float:
    """frame_potentials_bruteforce for one t, with the same keywords."""
    return frame_potentials_bruteforce(d, n, [t], **keywords)[0]


def _reference_powers(blocks: Iterable[np.ndarray], ts: Sequence[int], chunk: int) -> Iterator[np.ndarray]:
    """|<x_ref, x_i>|^{2t} for each t in ts (axis 0) and each row x_i of each block; x_ref is the first row.

    A block's overlaps are powered ``chunk`` rows at a time, so no piece
    outgrows one _chunked_tree chunk, whatever the number of moments.
    """
    ref = None
    for block in blocks:
        if ref is None:
            ref = block[:1].copy()  # a view would hold the first block
        sq = _squared_overlaps(ref, block)[0]
        del block  # the next block is realized while this generator waits: it need not hold this one
        for part in np.split(sq, range(chunk, len(sq), chunk)):
            yield np.array([part**t for t in ts])


def frame_potentials_fixed_state(
    d: int,
    n: int,
    ts: Sequence[int],
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
    vectors: Sequence[np.ndarray] | np.ndarray | None = None,
) -> list[float]:
    """S^{-1} sum_i |<x_ref, x_i>|^{2t} with x_ref = |M_0, 0>, for each t in ts.

    Orbit symmetry of the ensemble makes the single fixed-reference sum equal
    the full double sum; x_ref is the first enumerated state, whose coset
    representative is the zero vector. ``vectors``, when given, must hold the
    realized state vectors in enumeration order. Without them the states are
    realized a block at a time (stabilizer.state_blocks), which checks the
    state and matrix caps. Either way the overlaps with x_ref stream through
    _chunked_tree a block at a time, so no array grows with S: the working
    memory stays within a few _WORK_BYTES, not the (S, d^n) stack or S floats.
    """
    _validate_ts(d, n, ts)
    count = stabilizer_count(d, n)
    if vectors is None:
        blocks = state_blocks(d, n, state_cap=state_cap, matrix_cap=matrix_cap)
    else:
        stack = _state_stack(vectors, count, d, n)
        blocks = (stack[rows] for rows in _batches(0, count, 16 * d**n))  # 16 bytes per complex128 amplitude
    chunk = _tree_chunk(len(ts))
    return [float(total) / count for total in _chunked_tree(_reference_powers(blocks, ts, chunk), chunk)]


def frame_potential_fixed_state(d: int, n: int, t: int, **keywords) -> float:
    """frame_potentials_fixed_state for one t, with the same keywords."""
    return frame_potentials_fixed_state(d, n, [t], **keywords)[0]


@dataclass(frozen=True)
class FramePotentialReport:
    """One (d, n, t) cell: exact values, optional numeric value, verdict."""

    d: int
    n: int
    t: int
    value_recursion: Fraction
    value_combinatorial: Fraction
    welch: Fraction
    is_t_design: bool
    value_bruteforce: float | None = None

    def __post_init__(self) -> None:
        if self.value_recursion != self.value_combinatorial:
            raise ValueError("exact engines disagree; report is inconsistent")
        if self.is_t_design != (self.value_combinatorial == self.welch):
            raise ValueError("design verdict contradicts the values")

    @property
    def dimension(self) -> int:
        return self.d**self.n

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "t": self.t,
            "D": self.dimension,
            "recursion": fraction_str(self.value_recursion),
            "combinatorial": fraction_str(self.value_combinatorial),
            "bruteforce": self.value_bruteforce,
            "welch": fraction_str(self.welch),
            "is_design": self.is_t_design,
        }


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def frame_potential_report(d: int, n: int, t: int, *, bruteforce: float | None = None) -> FramePotentialReport:
    comb = frame_potential_combinatorial(d, n, t)
    bound = welch_bound(d**n, t)
    return FramePotentialReport(
        d=d,
        n=n,
        t=t,
        value_recursion=frame_potential_recursion(d, n, t),
        value_combinatorial=comb,
        welch=bound,
        is_t_design=comb == bound,
        value_bruteforce=bruteforce,
    )

