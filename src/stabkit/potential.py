"""Frame potentials of the stabilizer-state ensemble, three ways.

Two exact engines return identical rationals by construction of the theory:

* a recursion over n with base case (d^{2-t}+1)/((d+1)d) and step factor
  (d^{k-(t-2)}+1)/(d(d^{k+1}+1)),
* the closed combinatorial sum S(d,n)^{-1} sum_{k=0..n} binom(n,k)_d *
  d^{(n-k)(n-k+3-2t)/2}.

Two floating-point engines recompute the same quantity from realized state
vectors: the full double sum over pairs, and the single fixed-reference sum
that orbit symmetry makes equivalent. Both are single-threaded, and every sum
uses a fixed pairwise-tree order whose shape depends only on the length of the
list summed, so results do not depend on how rows are blocked.

Both take a list of moments t: the overlaps |<x_i, x_j>|^2 are computed once,
and only the power and the tree run once per t, with the same bits as one call
per t. Neither holds an array that grows with S beyond the states themselves:
their working memory is one budget, weyl._WORK_BYTES. The brute-force
engine reads the whole (S, d^n) stack of state vectors, a block of rows at a
time, and keeps only each block's squared overlaps. The fixed-reference sum
needs only the reference overlaps: frame_potentials_fixed_state streams the
states a block at a time from stabilizer.state_blocks. Both feed their sums
to _chunked_tree, which reduces aligned chunks as they arrive and gives the
bits of the tree over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import gaussian_binomial, require_prime, stabilizer_count, welch_bound
from .errors import check_cap, json_field
from .stabilizer import DEFAULT_STATE_CAP, state_blocks, state_vectors
from .weyl import _WORK_BYTES, DEFAULT_MATRIX_CAP

DEFAULT_PAIR_CAP = 25_000_000
_OVERLAP_BYTES = 32  # peak bytes per overlap in _row_sums: its |amp|^2, one power and the tree's levels
_TREE_CHUNK = 2**12  # values per t that _chunked_tree holds; it keeps one sum per chunk


def _validate(d: int, n: int, t: int) -> None:
    require_prime(d)
    for name, value in (("n", n), ("t", t)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive int, got {value!r}")


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
    """Exact frame potential via the closed intersection-counting sum.

    The k index runs over 0..n inclusive: the k=0 term is required for the
    term count to add up to the total number of Lagrangians.
    """
    _validate(d, n, t)
    total = Fraction(0)
    for k in range(n + 1):
        e = (n - k) * (n - k + 3 - 2 * t)
        if e % 2:
            raise RuntimeError("intersection-sum exponent must be even")
        total += gaussian_binomial(n, k, d) * Fraction(d) ** (e // 2)
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


def _chunked_tree(pieces: Iterable[np.ndarray], chunk: int) -> np.ndarray:
    """_pairwise_tree over the pieces joined along their last axis, bit for bit, holding one chunk at a time.

    The values are cut into aligned chunks of ``chunk``, a power of two, as
    they stream in. Each chunk is reduced by the tree on its own, a short last
    one too, and the tree over the chunk sums finishes the sum. That is the
    whole tree: its pairs never cross an aligned boundary, and until a short
    last chunk is one value, its levels are the whole tree's odd tails.
    """
    sums, held, size = [], [], 0  # the chunk so far, as views of the pieces, and its length
    for piece in pieces:
        start = 0
        while start < piece.shape[-1]:
            take = min(chunk - size, piece.shape[-1] - start)
            held.append(piece[..., start : start + take])
            size, start = size + take, start + take
            if size == chunk:
                sums.append(_pairwise_tree(np.concatenate(held, axis=-1)))
                held, size = [], 0
    if held:
        sums.append(_pairwise_tree(np.concatenate(held, axis=-1)))
    return _pairwise_tree(np.stack(sums, axis=-1))


def _state_stack(vectors, count: int, d: int, n: int, *, state_cap: int, matrix_cap: int) -> np.ndarray:
    """The vectors as one (S, d^n) array, rows in order (an array is not copied), or state_vectors for None."""
    if vectors is None:
        return state_vectors(d, n, state_cap=state_cap, matrix_cap=matrix_cap)
    stack = np.asarray(vectors)
    if stack.shape != (count, d**n):
        raise ValueError(f"expected all {count} state vectors, of length {d**n}: got shape {stack.shape}")
    return stack


def _row_sums(stack: np.ndarray, rows: range, ts: Sequence[int]) -> np.ndarray:
    """sum_j |<x_i, x_j>|^{2t} for each t in ts (axis 0) and each i in rows, each row by the fixed tree.

    Each row's overlaps come from their own product with the whole stack: a
    single matrix product over the block rounds differently. Only their
    squared moduli are kept, _OVERLAP_BYTES per overlap at the peak.
    """
    sq = np.empty((len(rows), len(stack)))
    for r, i in enumerate(rows):
        amps = stack @ np.conj(stack[i])
        sq[r] = amps.real**2 + amps.imag**2
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
    stack = _state_stack(vectors, count, d, n, state_cap=state_cap, matrix_cap=matrix_cap)
    block = max(1, _WORK_BYTES // (_OVERLAP_BYTES * count))  # rows per block
    totals = (_row_sums(stack, range(i, min(i + block, count)), ts) for i in range(0, count, block))
    return [float(total) / (count * count) for total in _chunked_tree(totals, _TREE_CHUNK)]


def frame_potential_bruteforce(d: int, n: int, t: int, **keywords) -> float:
    """frame_potentials_bruteforce for one t, with the same keywords."""
    return frame_potentials_bruteforce(d, n, [t], **keywords)[0]


def _reference_powers(blocks: Iterable[np.ndarray], ts: Sequence[int]) -> Iterator[np.ndarray]:
    """|<x_ref, x_i>|^{2t} for each t in ts (axis 0) and each row x_i of each block; x_ref is the first row."""
    ref = None
    for block in blocks:
        if ref is None:
            ref = np.conj(block[0])
        amps = block @ ref
        del block  # the next block is realized while this generator waits: it need not hold this one
        sq = amps.real**2 + amps.imag**2
        yield np.array([sq**t for t in ts])


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
        stack = _state_stack(vectors, count, d, n, state_cap=state_cap, matrix_cap=matrix_cap)
        rows = max(1, _WORK_BYTES // (16 * d**n))  # a block of stack rows as large as _WORK_BYTES
        blocks = (stack[i : i + rows] for i in range(0, count, rows))
    return [float(total) / count for total in _chunked_tree(_reference_powers(blocks, ts), _TREE_CHUNK)]


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FramePotentialReport":
        d, n, t, dim = (json_field(obj, key, int) for key in ("d", "n", "t", "D"))
        _validate(d, n, t)
        if dim != d**n:
            raise ValueError(f"JSON field 'D' is {dim}, but d**n is {d**n}")
        return cls(
            d=d,
            n=n,
            t=t,
            value_recursion=parse_fraction(json_field(obj, "recursion", str)),
            value_combinatorial=parse_fraction(json_field(obj, "combinatorial", str)),
            welch=parse_fraction(json_field(obj, "welch", str)),
            is_t_design=json_field(obj, "is_design", bool),
            value_bruteforce=json_field(obj, "bruteforce", (float, int, type(None))),
        )


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def parse_fraction(s: str) -> Fraction:
    """The fraction of a "p/q" string, as fraction_str writes it; ValueError otherwise."""
    num, slash, den = s.partition("/")
    if not slash or int(den) == 0:
        raise ValueError(f"not a p/q fraction: {s!r}")
    return Fraction(int(num), int(den))


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


def design_verdict(d: int, n: int, t_max: int) -> list[FramePotentialReport]:
    """Reports for t = 1..t_max with exact design verdicts."""
    if t_max < 1:
        raise ValueError("t_max must be positive")
    return [frame_potential_report(d, n, t) for t in range(1, t_max + 1)]
