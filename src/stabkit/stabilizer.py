"""Stabilizer states as (Lagrangian, coset) pairs.

A state |M, zeta> is identified by a Lagrangian subspace M of Z_d^{2n} and
the canonical representative zeta of a coset of V/M (zero on M's pivot
coordinates). Identity is structural: two states are equal iff their pairs
are. Weyl operators w_B use M's canonical generator list B as basis.

One function computes the lambda values below (_block), for a run of
consecutive Lagrangians at a time, as the module's one table format: point
indices and keys, which the overlap rule reads stacked and realization
(_fill) reads run by run. No dense matrix is built here; those are weyl's.
A block is such a run, as many Lagrangians as fit one working memory budget
(errors._per_batch, shared with the numeric engines); state_blocks yields
each block's (states, d^n) vectors in enumeration order, and state_vectors,
realized_states and stabilizer_basis read the same blocks.
Each entry point checks each cap once. For every m in M, in lexicographic
coefficient order, w_B(m) = tau^{e_M(m)} z(P_m) x(Q_m) (the closed form of
weyl._words), and

    lambda(zeta, m) = (2[zeta,m] + e_M(m)) mod the order of tau,

over (coset in coset_representatives order, element). The state |M,zeta>,
fixed by every omega^{[zeta,m]} w_B(m), is an eigenvector of z(P_m) x(Q_m)
with eigenvalue tau^{-lambda(zeta,m)}. As m -> omega^{[zeta,m]} w_B(m) is a
representation of M, and the operators z(P_m) x(Q_m) compose up to phases
that depend on the points alone, two states' eigenvalue maps on a shared
subgroup K differ by a character of K. It is trivial once it is trivial on a
basis of K, at most n elements (_span_basis), so the overlap rule below
compares lambda on such a basis only, packed into one integer per state.

Realization: the basis vector |x> is the state |M_0, x> of the first
enumerated Lagrangian M_0 = {(p | 0)}, with keys lambda(x, p) =
2[(0|x), (p|0)] = -2 x.p, and M cap M_0 = M_Z = {z in M : Q_z = 0}. Let x0 be
the first basis state |M_0, x> that |M,zeta> overlaps, by the overlap rule
below. With k(zeta, m, x) = lambda(zeta, m) + 2 P_m.(x + Q_m) mod the order
of tau, that is k(zeta, z, x0) = 0 for every z in M_Z. The vector is
|Q(M)|^{-1/2} tau^{k(zeta,m,x0)} at x0 + Q_m mod d and 0 elsewhere. By the
representation the amplitude depends only on m + M_Z, and k = 0 at x0 makes
the first nonzero amplitude real positive exactly.

Overlaps: |<M,zeta|N,iota>|^2 is d^{-n} |M cap N| when lambda_M(zeta, .) and
lambda_N(iota, .) agree on K = M cap N, and 0 otherwise, since two
stabilizer states overlap exactly when every shared Weyl operator has the
same eigenvalue on both. _overlaps matches one M's keys against stacked
tables through one lookup array of points, with no subspace intersection.

state_deviations holds realized vectors to these rules, within the same budget.
It owns the table layout and the tau convention, so callers pass only the
Lagrangians, their vectors and the Weyl operators of weyl.zx_monomials.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import stabilizer_count
from .errors import DEFAULT_MATRIX_CAP, DEFAULT_STATE_CAP, _batches, _per_batch, check_cap
from .weyl import _monomials, _point_index, _tau_powers, _words, tau_order
from .symplectic import (
    PhaseVector,
    Subspace,
    _trusted,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    is_lagrangian,
)

_FILL_BYTES = 28  # peak bytes per (table, coset, element) in _fill, its vectors included
# Peak bytes per (pair, state, amplitude) of a state_deviations eigenvalue chunk, or per state pair of an overlap
# block with its Gram check: 47-65 measured over whole calls at 4 to 16 pairs or tables, at (2, 3), (3, 2), (5, 2).
_CHECK_BYTES = 64


@dataclass(frozen=True)
class StabilizerState:
    lagrangian: Subspace
    zeta: PhaseVector

    def __post_init__(self) -> None:
        if not is_lagrangian(self.lagrangian):
            raise ValueError("subspace is not Lagrangian")
        if canonical_coset_representative(self.lagrangian, self.zeta) != self.zeta:
            raise ValueError("coset representative is not canonical; use canonical_coset_representative")

    @property
    def d(self) -> int:
        return self.lagrangian.d

    @property
    def n(self) -> int:
        return self.lagrangian.n

    def to_json_dict(self, amplitudes: np.ndarray | None = None) -> dict:
        out = {
            "d": self.d,
            "n": self.n,
            "lagrangian": self.lagrangian.to_json_dict(),
            "zeta": list(self.zeta.coords),
        }
        if amplitudes is not None:
            out["amplitudes"] = [[float(a.real), float(a.imag)] for a in amplitudes]
        return out


@functools.lru_cache(maxsize=4)
def _points(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables over the points of Z_d^n, indexed in lexicographic order (first coordinate most significant).

    sums[a, b], the index of point a + point b mod d; and dots[a, b] =
    2 a.b mod the order of tau, on the lifts. Both are in the narrowest
    signed integer type that holds point indices below d^n, and sums or
    differences of at most three exponents below the order of tau, so the
    per-key arrays that _block and _fill read off them are too.
    """
    narrow = np.min_scalar_type(-max(3 * tau_order(d), d**n))
    grid = np.indices((d,) * n).reshape(n, -1).T
    sums = np.zeros((d**n, d**n), dtype=narrow)
    for i, weight in enumerate(d ** np.arange(n - 1, -1, -1)):
        sums += (grid[:, None, i] + grid[:, i]) % d * weight
    tables = sums, (2 * grid @ grid.T % tau_order(d)).astype(narrow)
    for table in tables:
        table.flags.writeable = False
    return tables


def _block(m_subs: Sequence[Subspace]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked point indices (table, element) and keys (table, coset, element) of Lagrangians of one (d, n).

    The only producer of lambda and of point indices, P_m d^n + Q_m in
    zx_monomials order; the coordinate rows of weyl._words stay here. Elements
    and their exponents e_M(m) are in lexicographic coefficient order. Each
    table's cosets are in coset_representatives order: the points of Z_d^n
    on its free columns, read as zeta_P's and zeta_Q's point indices. The
    keys, in the type of _points' tables, are 2[zeta,m] + e_M(m) mod the
    order of tau, where 2[zeta,m] = 2 zeta_P.Q_m - 2 zeta_Q.P_m may use the
    integer lifts, since 2 (x mod d) = 2x (mod 2d).
    """
    d, n = m_subs[0].d, m_subs[0].n
    order, dots = tau_order(d), _points(d, n)[1]
    gens = np.array([m_sub.generators for m_sub in m_subs])  # (table, n, 2n)
    rows, exponents = _words(d, gens)  # (table, element[, 2n])
    points = _point_index(rows, d)
    del rows  # the keys' temporaries need not sit beside it
    p_index, q_index = np.divmod(points, d**n)
    free = _free_columns(gens)  # (table, n); each adds its coordinate at its place value in zeta_P or in zeta_Q
    zeta_p, zeta_q = d ** ((n - 1 - free) % n) * np.array([free < n, free >= n]) @ np.indices((d,) * n).reshape(n, -1)
    keys = dots.take(zeta_p[..., None] * d**n + q_index[:, None])  # the flat table at row * width + column, as in _fill
    keys -= dots.take(zeta_q[..., None] * d**n + p_index[:, None])
    keys += exponents.astype(keys.dtype)[:, None]
    keys %= order
    return points, keys


def _free_columns(gens: np.ndarray) -> np.ndarray:
    """The free (non-pivot) columns of stacked RREF generator rows (table, n, 2n), ascending: shape (table, n)."""
    pivot = ((gens != 0).argmax(-1)[..., None] == np.arange(gens.shape[-1])).any(1)  # (table, 2n)
    return (~pivot).nonzero()[1].reshape(len(gens), -1)


def _span_basis(d: int, n: int, mask: np.ndarray) -> np.ndarray:
    """A basis of each subgroup mask[t] of the d^n elements of an n-dim subspace, as element indices (t, n).

    Elements are indexed in lexicographic coefficient order, so the element
    with coefficients a plus the one with b is the one with a + b, read off
    the point-sum table. Each greedy step takes the first element of the mask
    outside the span so far and adds its multiples to the span; element 0
    fills the rest once the span is the mask.
    """
    sums = _points(d, n)[0]
    tables = np.arange(len(mask))[:, None]
    span = np.zeros_like(mask)
    span[:, 0] = True
    basis = np.zeros((len(mask), n), dtype=np.intp)
    for i in range(n):
        basis[:, i] = (mask & ~span).argmax(1)
        for _ in range(d - 1):
            span[tables, sums[basis[:, i]]] |= span  # the span so far, and the span shifted by the new element
    return basis


def _overlaps(
    d: int, n: int, points: np.ndarray, keys: np.ndarray, their_points: np.ndarray, their_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The overlap rule of M's states against those of each N, from tables as _stacked_tables stacks them.

    M's points (element,) and keys (coset, element) meet each N's (N, element)
    and (N, coset, element). Returns |M cap N| for each N, and where the i-th
    state of M and the j-th of N overlap (with value d^{-n} |M cap N|), as
    (N, i, j) booleans: working memory beside a few integers per element of N.
    """
    column = np.full(d ** (2 * n), -1)  # column[p]: the column of point p in M, or -1 off M
    column[points] = np.arange(len(points))
    mine = column[their_points]  # (N, element of N)
    shared = mine >= 0
    # lambda on a basis of M cap N (module docstring), in N's element indices and M's columns; element 0,
    # where lambda = 0 on both sides, fills the rest. Each state's keys there are packed into one integer.
    basis = _span_basis(d, n, shared)
    digits = tau_order(d) ** np.arange(n)
    here = keys[:, np.take_along_axis(mine, basis, 1)] @ digits  # (cosets of M, N)
    there = np.take_along_axis(their_keys, basis[:, None], 2) @ digits  # (N, cosets of N)
    return shared.sum(1), here.T[:, :, None] == there[:, None]


def _fill(d: int, n: int, points: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The vectors of a block of Lagrangians by the module's closed form, shape (table, coset, d^n).

    points and keys are stacked as _block returns them. Over (table, coset,
    element) the vectors take 16 bytes and the rest a few narrow arrays,
    beside one table's index arrays at a time: _FILL_BYTES per such key in
    all, _block's keys included.
    """
    order, (sums, dots), width = tau_order(d), _points(d, n), d**n
    p_index, q_index = np.divmod(points, width)
    # M_0's tables in closed form (module docstring): points p d^n, and keys -2 x.p over (coset x, element p).
    hits = _overlaps(d, n, np.arange(width) * width, -dots % order, points, keys)[1]  # (table, x, coset)
    if not hits.any(1).all():
        raise RuntimeError("no basis point is fixed by the Z-only elements")
    x0 = hits.argmax(1)  # the index of x0 in grid, per (table, coset)
    # Over (table, coset, element), each table lookup reads the flat table at row * width + column, which is
    # faster than indexing by a pair of arrays. k(zeta, m, x0) = lambda(zeta, m) + 2 P_m.x0 + 2 P_m.Q_m is left
    # unreduced: three terms, each below the order of tau.
    k = dots.take(x0[..., None] * width + p_index[:, None])
    k += keys
    k += dots.take(p_index * width + q_index)[:, None]
    support = sums.take(x0[..., None] * width + q_index[:, None])  # x0 + Q_m
    # Each amplitude is read off its table's row of powers |Q(M)|^{-1/2} tau^k, k below 3 orders, whose
    # last entry is 0: a table's exps holds that k at x0 + Q_m and the zero's index elsewhere. One table
    # at a time, so that only the vectors grow with the block.
    zero = 3 * order
    powers = np.zeros((len(k), zero + 1), dtype=np.complex128)
    powers[:, :zero] = 1 / np.sqrt(width // (q_index == 0).sum(1))[:, None] * np.tile(_tau_powers(d), 3)
    out = np.empty((*k.shape[:2], width), dtype=np.complex128)
    starts = np.arange(0, k.shape[1] * width, width)[:, None]  # each coset's row of a table's exps
    for table, row in enumerate(powers):
        exps = np.full(out.shape[1:], zero, dtype=k.dtype)
        exps.put(starts + support[table], k[table])
        row.take(exps, out=out[table], mode="clip")
    return out


def stabilizer_basis(m_sub: Subspace) -> list[tuple[PhaseVector, np.ndarray]]:
    """The d^n states of one Lagrangian by the closed form above, in coset_representatives order."""
    check_cap("matrix dimension", m_sub.d**m_sub.n, DEFAULT_MATRIX_CAP)  # before the d^n x d^n vectors are built
    if not is_lagrangian(m_sub):
        raise ValueError("needs a Lagrangian subspace")
    return list(zip(coset_representatives(m_sub), next(_state_blocks(m_sub.d, m_sub.n, [m_sub]))[1]))


def overlap_exact(a: StabilizerState, b: StabilizerState) -> Fraction:
    """|<M,zeta|N,iota>|^2 of the realized states, as an exact rational."""
    a.zeta._check_compatible(b.zeta)
    points, keys = _stacked_tables([a.lagrangian, b.lagrangian])
    (size,), hits = _overlaps(a.d, a.n, points[0], keys[0], points[1:], keys[1:])
    # Each state's row of its table: zeta's free coordinates read as a base-d number, the order _block gives cosets.
    free = _free_columns(np.array([a.lagrangian.generators, b.lagrangian.generators]))
    i, j = _point_index(np.take_along_axis(np.array([a.zeta.coords, b.zeta.coords]), free, 1), a.d)
    return Fraction(int(size), a.d**a.n) if hits[0, i, j] else Fraction(0)


def _stacked_tables(lagrangians: Sequence[Subspace]) -> tuple[np.ndarray, np.ndarray]:
    """_block's point indices (Lagrangian, element) and keys (Lagrangian, coset, element), concatenated over runs."""
    points, keys = zip(*map(_block, _runs(lagrangians[0].d, lagrangians[0].n, lagrangians)))
    return np.concatenate(points), np.concatenate(keys)


def state_deviations(
    lagrangians: Sequence[Subspace], vectors: np.ndarray, zx: Sequence[np.ndarray]
) -> tuple[float, float, float]:
    """How far realized states stray from the exact rules: the largest entrywise deviation of each check.

    lagrangians are Lagrangians of one (d, n), vectors their states' stack
    (d^n rows each, in order, as state_vectors gives them) and zx the pair
    of weyl.zx_monomials(d, n). Returns (eigen, gram, overlap): omega^{[zeta,m]}
    w_B(m)|M,zeta> against |M,zeta> for every state and every m in M, gathered,
    as row rows[x] of w_B(m)|psi> is values[x] psi[x]; |<M,zeta|N,iota>|^2
    against the overlap rule for every pair of states with N >= M; and each
    Lagrangian's Gram matrix against the identity, read off the amplitudes of
    its N = M block. The checks take (Lagrangian, element) pairs and N as many
    at a time as errors._batches fits at _CHECK_BYTES per (pair, state,
    amplitude) or state pair.
    """
    if not lagrangians:
        raise ValueError("needs Lagrangians, got none")
    d, n = lagrangians[0].d, lagrangians[0].n
    dim = d**n
    if vectors.shape != (len(lagrangians) * dim, dim):
        raise ValueError(f"expected {len(lagrangians) * dim} state vectors of length {dim}: got shape {vectors.shape}")
    rows, values = _monomials(d, n, zx)
    if not all((m_sub.d, m_sub.n) == (d, n) and is_lagrangian(m_sub) for m_sub in lagrangians):
        raise ValueError("needs Lagrangian subspaces of one space")
    points, keys = _stacked_tables(lagrangians)
    bases = vectors.reshape(len(lagrangians), dim, dim)  # a view: (Lagrangian, state, amplitude)
    taus, identity = _tau_powers(d), np.eye(dim)
    unit = _CHECK_BYTES * dim * dim  # per pair of an eigenvalue chunk or N of an overlap block
    eigen = gram = overlap = 0.0
    for pairs in _batches(0, points.size, unit):
        tables, elements = np.divmod(np.arange(*pairs.indices(points.size)), dim)
        lam = keys[tables, :, elements]  # (pair, coset): lambda(zeta, m), and e_M(m) at the zero coset
        point = points[tables, elements]
        chunk = bases[tables]  # (pair, state, amplitude)
        # Each amplitude at its image's row, off the flat chunk: take_along_axis's index arrays would outgrow it.
        target = chunk.take(np.arange(0, chunk.size, dim).reshape(chunk.shape[:2])[..., None] + rows[point][:, None])
        # w_B(m) = tau^{e_M(m)} z x(m), and omega^{[zeta,m]} = tau^{lambda(zeta,m) - e_M(m)}, for m in the chunk.
        # In place, each amplitude becomes its image's: one product, the matrix value first.
        np.multiply((taus[lam[:, 0]][:, None] * values[point])[:, None], chunk, out=chunk)
        np.multiply(taus[(lam - lam[:, :1]) % len(taus)][..., None], chunk, out=chunk)  # phase first
        chunk -= target
        eigen = max(eigen, float(np.max(np.abs(chunk))))
        del chunk, target  # the next chunk need not hold them
    for mi, basis in enumerate(map(np.conj, bases)):
        for tables in _batches(mi, len(bases), unit):
            sizes, hits = _overlaps(d, n, points[mi], keys[mi], points[tables], keys[tables])
            amps = basis @ bases[tables].swapaxes(1, 2)
            if tables.start == mi:  # M's first block starts at N = M: amps[0] is its Gram matrix
                gram = max(gram, float(np.abs(amps[0] - identity).max()))  # a method call: this runs once per M
            residual = amps.real**2
            residual += amps.imag**2
            del amps  # the complex block is done with before the residual's absolute value
            residual -= (sizes / dim)[:, None, None] * hits
            overlap = max(overlap, float(np.max(np.abs(residual))))
            del hits, residual  # the next block need not hold them
    return eigen, gram, overlap


def enumerate_states(d: int, n: int, *, cap: int = DEFAULT_STATE_CAP) -> Iterator[StabilizerState]:
    """All S(d,n) stabilizer states: Lagrangians outer, coset reps inner."""
    check_cap("states", stabilizer_count(d, n), cap)
    return _states(enumerate_lagrangians(d, n))


def _states(lagrangians: Iterable[Subspace]) -> Iterator[StabilizerState]:
    """The states of each Lagrangian in turn, in coset_representatives order."""
    return (_trusted(StabilizerState, m_sub, zeta) for m_sub in lagrangians for zeta in coset_representatives(m_sub))


def _check_realization(d: int, n: int, state_cap: int, matrix_cap: int) -> None:
    """The caps of realizing every state of (d, n), each checked once, before any state is built."""
    check_cap("realized states", stabilizer_count(d, n), state_cap)
    check_cap("matrix dimension", d**n, matrix_cap)


def state_blocks(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> Iterator[np.ndarray]:
    """Every stabilizer state's vector, one (states, d^n) block of rows at a time, in enumeration order.

    A block holds the states of a run of consecutive Lagrangians, as many as
    _fill realizes within one batch of errors._per_batch. Both caps are
    checked by this call, before any block is built; the first row of the
    first block is |M_0, 0>.
    """
    _check_realization(d, n, state_cap, matrix_cap)
    # map, unlike a generator expression, holds no block while the next one is built.
    return map(operator.itemgetter(1), _state_blocks(d, n, enumerate_lagrangians(d, n)))


def _state_blocks(d: int, n: int, lagrangians: Iterable[Subspace]) -> Iterator[tuple[list[Subspace], np.ndarray]]:
    """Each block's Lagrangians with their states' vectors, from Lagrangians in enumeration order; no cap is checked."""
    for run in _runs(d, n, lagrangians):
        yield run, _fill(d, n, *_block(run)).reshape(-1, d**n)


def _runs(d: int, n: int, lagrangians: Iterable[Subspace]) -> Iterator[list[Subspace]]:
    """Consecutive runs of the given Lagrangians, as many as _fill realizes within one batch of errors._per_batch."""
    stream, per_run = iter(lagrangians), _per_batch(_FILL_BYTES * d ** (2 * n))
    return iter(lambda: list(itertools.islice(stream, per_run)), [])


def state_vectors(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> np.ndarray:
    """Every stabilizer state's vector as one (S(d,n), d^n) stack, rows in enumeration order: state_blocks stacked."""
    blocks = state_blocks(d, n, state_cap=state_cap, matrix_cap=matrix_cap)  # the caps, before the stack
    out = np.empty((stabilizer_count(d, n), d**n), dtype=np.complex128)
    row = 0
    for block in blocks:
        out[row : row + len(block)] = block
        row += len(block)
    return out


def realized_states(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> Iterator[tuple[StabilizerState, np.ndarray]]:
    """Every stabilizer state with its vector (a row view of its block), in enumeration order, lazily: caps on call."""
    _check_realization(d, n, state_cap, matrix_cap)
    return (pair for run, vecs in _state_blocks(d, n, enumerate_lagrangians(d, n)) for pair in zip(_states(run), vecs))
