"""Stabilizer states as (Lagrangian, coset) pairs.

A state |M, zeta> is identified by a Lagrangian subspace M of Z_d^{2n} and
the canonical representative zeta of a coset of V/M (zero on M's pivot
coordinates). Identity is structural: two states are equal iff their pairs
are. Weyl operators w_B use M's canonical generator list B as basis.

One integer table per Lagrangian (phase_table) drives both realization and
the overlap rule; _fill runs the closed form on a stack of tables. Lagrangians
of one pivot pattern share their coset rows, so state_blocks builds their
tables a block at a time and yields each block's (states, d^n) vectors in
enumeration order. state_vectors stacks those blocks into one (S(d,n), d^n)
array, and realized_states pairs each state with a row view of it, in one
pass over the Lagrangians. Each entry point checks each cap once. For every m
in M, in lexicographic coefficient order,
w_B(m) = tau^{e_M(m)} z(P_m) x(Q_m) (the closed form of weyl._word), and

    lambda(zeta, m) = (2[zeta,m] + e_M(m)) mod the order of tau,

over (coset in coset_representatives order, element). The state |M,zeta>,
fixed by every omega^{[zeta,m]} w_B(m), is an eigenvector of z(P_m) x(Q_m)
with eigenvalue tau^{-lambda(zeta,m)}.

Realization: with k(zeta, m, x) = lambda(zeta, m) + 2 P_m.(x + Q_m) mod the
order of tau, let x0 be the lexicographically first x in Z_d^n with
k(zeta, z, x) = 0 for every z in M_Z = {z in M : Q_z = 0}. The vector is
|Q(M)|^{-1/2} tau^{k(zeta,m,x0)} at x0 + Q_m mod d and 0 elsewhere. It is well
defined because m -> omega^{[zeta,m]} w_B(m) is a representation of M, so the
amplitude depends only on m + M_Z; k = 0 at x0 makes the first nonzero
amplitude real positive exactly.

Overlaps: |<M,zeta|N,iota>|^2 is d^{-n} |M cap N| when lambda_M(zeta, .) and
lambda_N(iota, .) agree on every point M and N share, and 0 otherwise, since
two stabilizer states overlap exactly when every shared Weyl operator has
the same eigenvalue on both. PhaseTable.overlaps matches one table's keys
against a batch of tables at once: the shared points are found by their
indices through one lookup array, with no subspace intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import require_prime, stabilizer_count
from .errors import check_cap, json_field
from .weyl import DEFAULT_MATRIX_CAP, _point_index, _tau_powers, _word, _zx_matrix, tau_order
from .symplectic import (
    PhaseVector,
    Subspace,
    _coset_rows,
    _trusted,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    is_lagrangian,
)

DEFAULT_STATE_CAP = 10**6
_BLOCK_KEYS = 2**14  # table keys per realized block; the fill's temporaries scale with it


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StabilizerState":
        sub = Subspace.from_json_dict(json_field(obj, "lagrangian", dict))
        zeta = tuple(json_field(obj, "zeta", list))
        return cls(sub, PhaseVector(json_field(obj, "d", int), json_field(obj, "n", int), zeta))


def weyl_representation(m_sub: Subspace, *, cap: int = DEFAULT_MATRIX_CAP) -> list[tuple[PhaseVector, np.ndarray]]:
    """(m, w_B(m)) for every m in M, B its canonical generators, in lexicographic coefficient order."""
    d, n = m_sub.d, m_sub.n
    check_cap("matrix dimension", d**n, cap)
    taus = _tau_powers(d)
    words = (_word(d, n, m_sub.generators, c) for c in itertools.product(range(d), repeat=m_sub.dim))
    return [(_trusted(PhaseVector, d, n, p), taus[e] * _zx_matrix(d, p[:n], p[n:])) for e, p in words]


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """The integer phase data of one Lagrangian M, from phase_table.

    rows[j] is the (P | Q) row of the j-th element m of M, in lexicographic
    coefficient order, and points[j] its point index (weyl.zx_matrices order).
    keys[i, j] is lambda(zeta_i, m_j) for the i-th coset in
    coset_representatives order; row 0, the zero coset, holds the exponents
    e_M(m).
    """

    d: int
    n: int
    rows: np.ndarray
    points: np.ndarray
    keys: np.ndarray

    @property
    def exponents(self) -> np.ndarray:
        """e_M(m) in w_B(m) = tau^{e_M(m)} z(P_m) x(Q_m), in the order of points."""
        return self.keys[0]

    def overlaps(self, others: Sequence["PhaseTable"]) -> tuple[list[Fraction], np.ndarray]:
        """The overlap rule of this table's states against those of each table N in others, in one key match.

        Returns d^{-n} |M cap N| for each N, and a boolean array of shape
        (len(others), rows here, rows of N): the i-th state of M and the j-th
        of N overlap with that value where it is True, and are orthogonal
        where it is False. The tables in others must have equally many rows.
        Working memory is len(others) * rows^2 * d^n booleans.
        """
        if not others or any((t.d, t.n) != (self.d, self.n) for t in others):
            raise ValueError("needs tables of states in the same space")
        column = np.full(self.d ** (2 * self.n), -1)  # column[p]: the column of point p here, or -1 off M
        column[self.points] = np.arange(len(self.points))
        mine = column[np.stack([t.points for t in others])]  # (N, element of N)
        shared = mine >= 0
        # lambda of M's states at each element of N, read where that element is in M and ignored elsewhere.
        agree = self.keys[:, mine].swapaxes(0, 1)[:, :, None] == np.stack([t.keys for t in others])[:, None]
        hits = (agree | ~shared[:, None, None]).all(-1)
        return [Fraction(int(size), self.d**self.n) for size in shared.sum(1)], hits


def _lex_points(d: int, n: int) -> np.ndarray:
    """Every point of Z_d^n as a row, in lexicographic order (first coordinate most significant)."""
    return np.indices((d,) * n).reshape(n, -1).T


def _block(m_subs: Sequence[Subspace], cosets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked rows (table, element, 2n) and keys (table, coset, element) of Lagrangians of one pivot pattern.

    The keys run over that pattern's coset rows, zero coset first. With
    generator rows (p_i | q_i) and coefficients c, the element is c.G mod d
    and weyl._word's exponent is e(c) = -c^T (diag(p_i.q_i) + 2 triu(Q P^T, 1)) c:
    the matrix is q_i.p_j weighted 1 on the diagonal, 2 above it and 0 below.
    2[zeta,m] may use the integer lift, since 2 (x mod d) = 2x (mod 2d).
    """
    d, n = m_subs[0].d, m_subs[0].n
    coeffs = _lex_points(d, n)
    gens = np.array([m_sub.generators for m_sub in m_subs])  # (batch, n, 2n)
    p, q = gens[..., :n], gens[..., n:]
    i = np.arange(n)
    e = -((coeffs @ ((q @ p.swapaxes(1, 2)) * (1 + np.sign(i[None, :] - i[:, None])))) * coeffs).sum(-1)
    rows = coeffs @ gens % d
    form = cosets[:, :n] @ rows[..., n:].swapaxes(1, 2) - cosets[:, n:] @ rows[..., :n].swapaxes(1, 2)
    return rows, (2 * form + e[:, None, :]) % tau_order(d)


def _table(m_subs: Sequence[Subspace], cosets: np.ndarray) -> list[PhaseTable]:
    """The PhaseTable of each Lagrangian of one pivot pattern, from _block."""
    d, n = m_subs[0].d, m_subs[0].n
    rows, keys = _block(m_subs, cosets)
    return [PhaseTable(d, n, *arrays) for arrays in zip(rows, _point_index(rows, d), keys)]


def _fill(d: int, n: int, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The vectors of a block of tables by the module's closed form, shape (table, key row, d^n).

    rows and keys are stacked as _block returns them. Beyond the vectors, no
    temporary is much larger than keys: the Z-only elements are tested one
    element column at a time, and points are added through a table of their sums.
    """
    taus = _tau_powers(d)
    order, grid = len(taus), _lex_points(d, n)
    weights = d ** np.arange(n - 1, -1, -1)  # point @ weights is the point's index in grid
    p, q = rows[..., :n], rows[..., n:]
    # k(zeta, m, x) over (table, coset, element), less its x-dependent term 2 P_m.x.
    k = keys + 2 * (p * q).sum(-1)[:, None, :]
    z_only = ~q.any(-1)
    x_terms = 2 * p @ grid.T  # 2 P_m.x over (table, element, x)
    fixed = np.ones((*k.shape[:2], len(grid)), dtype=bool)
    for j in np.flatnonzero(z_only.any(0))[1:]:  # element 0 is m = 0, whose k is 0
        fixed &= ((k[:, :, j, None] + x_terms[:, None, j]) % order == 0) | ~z_only[:, j, None, None]
    if not fixed.any(-1).all():
        raise RuntimeError("no basis point is fixed by the Z-only elements")
    x0 = fixed.argmax(-1)  # the index of x0 in grid, per (table, coset)
    k = (k + np.take_along_axis(x_terms.swapaxes(1, 2), x0[..., None], axis=1)) % order  # adds 2 P_m.x0
    sums = ((grid[:, None] + grid) % d) @ weights  # sums[a, b]: the index of point a + point b mod d
    support = sums[x0[..., None], (q @ weights)[:, None]]  # x0 + Q_m
    modulus = 1 / np.sqrt(d**n // z_only.sum(1))  # |Q(M)|^{-1/2}, as |Q(M)| |M_Z| = |M|
    out = np.zeros((*k.shape[:2], d**n), dtype=np.complex128)
    np.put_along_axis(out, support, modulus[:, None, None] * taus[k], axis=2)
    return out


def phase_table(m_sub: Subspace) -> PhaseTable:
    """The lambda table of a Lagrangian M over all its cosets, with the rows and point index of each element."""
    if not is_lagrangian(m_sub):
        raise ValueError("needs a Lagrangian subspace")
    return _table([m_sub], np.array(list(_coset_rows(m_sub))))[0]


def stabilizer_basis(m_sub: Subspace, *, cap: int = DEFAULT_MATRIX_CAP) -> list[tuple[PhaseVector, np.ndarray]]:
    """The d^n states of one Lagrangian by the closed form above, in coset_representatives order."""
    check_cap("matrix dimension", m_sub.d**m_sub.n, cap)  # before the d^n x d^n table is built
    table = phase_table(m_sub)
    return list(zip(coset_representatives(m_sub), _fill(table.d, table.n, table.rows[None], table.keys[None])[0]))


def overlap_exact(a: StabilizerState, b: StabilizerState) -> Fraction:
    """|<M,zeta|N,iota>|^2 of the realized states, as an exact rational."""
    # One key row per state: lambda of its own zeta only.
    (table_a,), (table_b,) = (_table([s.lagrangian], np.array([s.zeta.coords])) for s in (a, b))
    (value,), hits = table_a.overlaps([table_b])
    return value if hits[0, 0, 0] else Fraction(0)


def enumerate_states(d: int, n: int, *, cap: int = DEFAULT_STATE_CAP) -> Iterator[StabilizerState]:
    """All S(d,n) stabilizer states: Lagrangians outer, coset reps inner."""
    require_prime(d)
    check_cap("states", stabilizer_count(d, n), cap)
    return _states(enumerate_lagrangians(d, n))


def _states(lagrangians: Iterable[Subspace]) -> Iterator[StabilizerState]:
    """The states of each Lagrangian in turn, in coset_representatives order."""
    return (_trusted(StabilizerState, m_sub, zeta) for m_sub in lagrangians for zeta in coset_representatives(m_sub))


def _check_realization(d: int, n: int, state_cap: int, matrix_cap: int) -> None:
    """The caps of realizing every state of (d, n), each checked once, before any state is built."""
    require_prime(d)
    check_cap("realized states", stabilizer_count(d, n), state_cap)
    check_cap("matrix dimension", d**n, matrix_cap)


def state_blocks(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> Iterator[np.ndarray]:
    """Every stabilizer state's vector, one (states, d^n) block of rows at a time, in enumeration order.

    A block holds the states of a run of Lagrangians of one pivot pattern, at
    most about 2^14 keys of their tables (one Lagrangian at least). Both caps are
    checked by this call, before any block is built; the first row of the first
    block is |M_0, 0>.
    """
    _check_realization(d, n, state_cap, matrix_cap)
    return (block for _, block in _state_blocks(d, n))


def _state_blocks(d: int, n: int) -> Iterator[tuple[list[Subspace], np.ndarray]]:
    """Each block's Lagrangians, with the vectors of their states; no cap is checked here."""
    per_block = max(1, _BLOCK_KEYS // d ** (2 * n))  # Lagrangians per block
    for _, group in itertools.groupby(enumerate_lagrangians(d, n), key=lambda m_sub: m_sub.pivots):
        while batch := list(itertools.islice(group, per_block)):
            cosets = np.array(list(_coset_rows(batch[0])))
            if cosets[0].any():  # exponents, and the fixed-state reference |M_0, 0>, need it
                raise RuntimeError("the zero coset must come first")
            yield batch, _fill(d, n, *_block(batch, cosets)).reshape(-1, d**n)


def _stacked(d: int, n: int) -> tuple[list[Subspace], np.ndarray]:
    """Every Lagrangian in enumeration order, and the blocks of _state_blocks stacked into one (S(d,n), d^n) array."""
    lagrangians: list[Subspace] = []
    out = np.empty((stabilizer_count(d, n), d**n), dtype=np.complex128)
    start = 0
    for batch, block in _state_blocks(d, n):
        lagrangians += batch
        out[start : start + len(block)] = block
        start += len(block)
    return lagrangians, out


def state_vectors(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> np.ndarray:
    """Every stabilizer state's vector as one (S(d,n), d^n) stack, rows in enumeration order: state_blocks stacked."""
    _check_realization(d, n, state_cap, matrix_cap)
    return _stacked(d, n)[1]


def realized_states(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> list[tuple[StabilizerState, np.ndarray]]:
    """Every stabilizer state with its Hilbert-space vector, in enumeration order: rows of state_vectors."""
    _check_realization(d, n, state_cap, matrix_cap)
    lagrangians, stack = _stacked(d, n)
    return list(zip(_states(lagrangians), stack))
