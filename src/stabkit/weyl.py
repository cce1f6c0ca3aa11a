"""Weyl (generalized Pauli) operators: closed-form integer words, monomial z(p) x(q).

Phase conventions: tau = exp(i*pi*(d^2+1)/d) and omega = tau^2 = exp(2*pi*i/d).
tau has order 2d in even dimension and order d in odd dimension. All
arithmetic in the exponent of tau happens on the integer lifts 0..d-1 of
phase-space coordinates and is only then reduced modulo the order of tau;
exponents of omega are ordinary mod-d residues. This integer-lift rule is
what makes the even-d operators well defined and reproducible.

Every product of Weyl operators normal-orders to tau^e * z(p) x(q), where z
and x are genuinely periodic mod d, by reordering through

    x(q) z(p') = omega^{-q.p'} z(p') x(q),

the product rule that _words applies in closed form (its docstring has the
exponent). The point v = (p | q) has index sum_i v_i d^{2n-1-i} on its lifts
(lexicographic, p_1 most significant): zx_monomials and the stabilizer key
tables share this order. On C^{d^n} (basis |q_1..q_n>, lexicographic, q_1
most significant) every z(p) x(q) is monomial, with one closed form,
_zx_monomial's (rows, values), which the relation checks read by gathers. Only
the acceptance API scatters it to dense matrices (_scatter), in this module
only. DEFAULT_MATRIX_CAP bounds d^n, not a stack's size.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Sequence

import numpy as np

from .combinatorics import _require_space
from .errors import DEFAULT_MATRIX_CAP, _batches, check_cap
from .symplectic import PhaseVector, Subspace, _trusted

# Peak bytes per (v, amplitude) of a verify_relations block: 80 at (5, 2), (3, 3), beside the tables of one u.
_RELATION_BYTES = 96
# Largest entrywise deviation the Weyl relation and trace checks accept.
WEYL_TOL = 1e-12


def tau_order(d: int) -> int:
    return 2 * d if d % 2 == 0 else d


def _tau_powers(d: int) -> np.ndarray:
    """tau^j for j = 0 .. ord(tau) - 1, indexed by the exponent."""
    # tau^j = exp(i*pi*(d^2+1)*j/d).
    return np.array([_unit_root(j * (d * d + 1), 2 * d) for j in range(tau_order(d))])


# Quarter turns exactly, with +0.0 zero parts: the literal -1j has real part -0.0.
_QUARTER_TURNS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _unit_root(k: int, m: int) -> complex:
    """exp(2*pi*i*k/m), exact at the quarter turns; the angle is reduced first to keep precision."""
    k %= m
    if 4 * k % m == 0:
        return _QUARTER_TURNS[4 * k // m]
    return cmath.exp(2j * math.pi * k / m)


def _omega_power(d: int, k: int) -> complex:
    return _unit_root(k, d)


def _zx_monomial(d: int, p: Sequence[int], q: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """z(p) x(q) on C^{d^n} as (rows, values): column x holds its one nonzero, values[x], at row rows[x].

    On register i, column x_i carries omega^{p_i r_i} at row r_i = x_i + q_i mod d. Each value is the product of
    its register factors in register order, as np.kron forms it (1 times a root of unity is exact).
    """
    roots = np.array([_unit_root(k, d) for k in range(d)])
    rows, values = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    for a, b in zip(p, q):
        r = (np.arange(d) + b) % d
        rows, values = (rows[:, None] * d + r).ravel(), (values[:, None] * roots[a * r % d]).ravel()
    return rows, values


def _scatter(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense matrix of a monomial (rows, values): values[x] at (rows[x], x), zero elsewhere."""
    out = np.zeros((len(rows), len(rows)), dtype=np.complex128)
    out[rows, np.arange(len(rows))] = values
    return out


def weyl(v: PhaseVector) -> np.ndarray:
    """Dense matrix of w(v) = tau^{-p.q} z(p) x(q), with p.q on the integer lifts."""
    check_cap("matrix dimension", v.d**v.n, DEFAULT_MATRIX_CAP)
    dot = sum(a * b for a, b in zip(v.p, v.q))
    return _tau_powers(v.d)[-dot % tau_order(v.d)] * _scatter(*_zx_monomial(v.d, v.p, v.q))


def _words(d: int, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every word w(u_1)^{c_1} ... w(u_k)^{c_k} = tau^e z(P) x(Q) over stacked generator rows, in closed form.

    gens stacks k rows u_i = (p_i | q_i) on the lifts as (..., k, 2n), and c
    runs over Z_d^k in lexicographic order (c_1 most significant). Returns
    the points (P | Q) = c.G mod d, shape (..., d^k, 2n), and the exponents
    e mod the order of tau, shape (..., d^k), where

        e(c) = -c^T (diag(p_i.q_i) + 2 triu(Q P^T, 1)) c
             = -(sum_i c_i^2 p_i.q_i + 2 sum_{i<j} c_i c_j q_i.p_j):

    the product rule applied factor by factor, since reducing a partial sum
    mod d moves e only by multiples of 2d, which the order of tau divides.
    """
    k, n = gens.shape[-2], gens.shape[-1] // 2
    coeffs = np.indices((d,) * k).reshape(k, d**k).T
    weights = 1 + np.sign(np.arange(k) - np.arange(k)[:, None])  # 1 on the diagonal, 2 above it, 0 below
    forms = (gens[..., n:] @ gens[..., :n].swapaxes(-1, -2)) * weights  # q_i.p_j, weighted
    return coeffs @ gens % d, -((coeffs @ forms) * coeffs).sum(-1) % tau_order(d)


def _point_index(rows: np.ndarray, d: int) -> np.ndarray:
    """Index of each (p | q) row on the lifts, in zx_monomials order."""
    return rows @ d ** np.arange(rows.shape[-1] - 1, -1, -1)


def zx_monomials(d: int, n: int, *, cap: int = DEFAULT_MATRIX_CAP) -> tuple[np.ndarray, np.ndarray]:
    """_zx_monomial's (rows, values) at every point of Z_d^{2n}, each stacked (d^{2n}, d^n): 6.3 MB at (2, 6).

    cap bounds d^n only.
    """
    _require_space(d, n)
    check_cap("matrix dimension", d**n, cap)
    rows, values = zip(*(_zx_monomial(d, v[:n], v[n:]) for v in itertools.product(range(d), repeat=2 * n)))
    return np.array(rows), np.array(values)


def _monomials(d: int, n: int, zx: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """zx as zx_monomials(d, n) stacks it, or a ValueError: rows are sorted and compared at 16 bytes per entry."""
    shape, pair = (d ** (2 * n), d**n), [np.asarray(a) for a in zx]
    ok = len(pair) == 2 and all(a.shape == shape for a in pair) and pair[0].dtype.kind in "iu"
    if not (ok and all((np.sort(pair[0][b]) == np.arange(d**n)).all() for b in _batches(0, shape[0], 16 * shape[1]))):
        raise ValueError(f"expected integer rows, each a permutation of 0..{d**n - 1}, and values of shape {shape}")
    return pair[0], pair[1]


def weyl_representation(m_sub: Subspace) -> list[tuple[PhaseVector, np.ndarray]]:
    """(m, w_B(m)) for every m in M, B its canonical generators, in lexicographic coefficient order.

    DEFAULT_MATRIX_CAP bounds d^n only: d^{3n} complex entries, 17 GB at (2, 10).
    """
    d, n = m_sub.d, m_sub.n
    check_cap("matrix dimension", d**n, DEFAULT_MATRIX_CAP)
    taus = _tau_powers(d)
    points, exponents = _words(d, np.array(m_sub.generators, dtype=np.int64).reshape(m_sub.dim, 2 * n))
    return [
        (_trusted(PhaseVector, d, n, tuple(p)), taus[e] * _scatter(*_zx_monomial(d, p[:n], p[n:])))
        for p, e in zip(points.tolist(), exponents.tolist())
    ]


def _relation_phases(d: int, n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phases on the right of both Weyl relations, for lifted rows u against v (broadcast).

    Composition: w(u) w(v) = tau^{[u,v]} w(u+v), u+v the integer sum, on the
    lifts. As w(s) = tau^{-s_p.s_q} z x(s mod d), its phase on z x(u+v mod d) is
    tau^{[u,v] - (p_u+p_v).(q_u+q_v)}. Commutation: w(u) w(v) = omega^{[u,v]} w(v) w(u).
    """
    form = (u[..., :n] * v[..., n:]).sum(-1) - (u[..., n:] * v[..., :n]).sum(-1)
    s = u + v
    omegas = np.array([_omega_power(d, k) for k in range(d)])
    return _tau_powers(d)[(form - (s[..., :n] * s[..., n:]).sum(-1)) % tau_order(d)], omegas[form % d]


def verify_composition(u: PhaseVector, v: PhaseVector, *, tol: float = WEYL_TOL) -> bool:
    """Check w(u) w(v) = tau^{[u,v]} w(u+v) as matrices.

    [u,v] is the integer-lift value and u+v on the right is the integer sum;
    both sides are then honest operator identities for every d.
    """
    u._check_compatible(v)
    n = u.n
    phase, _ = _relation_phases(u.d, n, np.array(u.coords), np.array(v.coords))
    s = [a + b for a, b in zip(u.coords, v.coords)]
    lhs = weyl(u) @ weyl(v)
    return bool(np.max(np.abs(lhs - phase * _scatter(*_zx_monomial(u.d, s[:n], s[n:])))) <= tol)


def verify_commutation(u: PhaseVector, v: PhaseVector, *, tol: float = WEYL_TOL) -> bool:
    """Check w(u) w(v) = omega^{[u,v]} w(v) w(u) as matrices."""
    u._check_compatible(v)
    _, phase = _relation_phases(u.d, u.n, np.array(u.coords), np.array(v.coords))
    wu, wv = weyl(u), weyl(v)
    return bool(np.max(np.abs(wu @ wv - phase * (wv @ wu))) <= tol)


def _agree(lhs_rows: np.ndarray, rhs_rows: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> bool:
    """Whether two stacks of monomials agree: rows exactly and values within WEYL_TOL. rhs is overwritten."""
    return np.array_equal(lhs_rows, rhs_rows) and bool(np.max(np.abs(np.subtract(lhs, rhs, out=rhs))) <= WEYL_TOL)


def verify_relations(d: int, n: int, zx: Sequence[np.ndarray]) -> tuple[bool, bool, float]:
    """verify_composition and verify_commutation over every pair of points, and the trace check, by exact gathers.

    zx is the zx_monomials pair, so each z(p) x(q) is built once. w(u) w(v) sends column x to row rows_u[rows_v[x]]
    with value w_u[rows_v[x]] w_v[x]; a relation holds when its rows agree exactly and its values within WEYL_TOL.
    Returns both verdicts and the largest |tr w(v) - d^n [v = 0]|, summed over the diagonal entries. Each u meets
    the points v as many at a time as errors._batches fits at _RELATION_BYTES per (v, amplitude).
    """
    _require_space(d, n)
    rows, values = _monomials(d, n, zx)
    points = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T  # in point-index order
    # w(v) = tau^{-p.q} z(p) x(q).
    phases = _tau_powers(d)[-(points[:, :n] * points[:, n:]).sum(1) % tau_order(d), None]
    blocks = list(_batches(0, len(points), _RELATION_BYTES * d**n))
    comp_ok = comm_ok = True
    for i, u in enumerate(points):
        rows_u, w_u = rows[i], phases[i] * values[i]
        composition, commutation = _relation_phases(d, n, u, points)
        sums = _point_index((u + points) % d, d)
        for v in blocks:
            rows_v, w_v, rhs = rows[v], phases[v] * values[v], values[sums[v]]
            lhs_rows, lhs = rows_u[rows_v], w_u[rows_v]
            lhs *= w_v  # w(u) w(v)
            comp_ok &= _agree(lhs_rows, rows[sums[v]], lhs, np.multiply(composition[v, None], rhs, out=rhs))
            rhs = w_v.take(rows_u, axis=1)  # w(v) w(u); take, unlike w_v[:, rows_u], keeps the block C-ordered
            rhs *= w_u
            comm_ok &= _agree(lhs_rows, rows_v.take(rows_u, 1), lhs, np.multiply(commutation[v, None], rhs, out=rhs))
            del rows_v, w_v, lhs_rows, lhs, rhs  # the next block need not hold them
    trace = np.concatenate([np.where(rows[v] == np.arange(d**n), phases[v] * values[v], 0).sum(1) for v in blocks])
    trace[0] -= d**n
    # Scalar abs: the array form rounds some moduli differently.
    return comp_ok, comm_ok, max(abs(x) for x in trace.tolist())
