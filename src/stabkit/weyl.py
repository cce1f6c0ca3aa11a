"""Weyl (generalized Pauli) operators: closed-form integer words, dense matrices.

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
(lexicographic, p_1 most significant): zx_matrices and the stabilizer key
tables share this order. Matrices on C^{d^n} (computational basis
|q_1..q_n>, lexicographic, q_1 most significant) are realized on demand, in
this module only; DEFAULT_MATRIX_CAP bounds d^n, not a stack's size.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import reduce
from typing import Sequence

import numpy as np

from .combinatorics import _require_space
from .errors import DEFAULT_MATRIX_CAP, _batches, check_cap
from .symplectic import PhaseVector, Subspace, _trusted

# Peak bytes per (v, amplitude, amplitude) of a verify_relations block and one u's rows: 70-76 at (2, 4), (5, 2).
_RELATION_BYTES = 80
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


def _register_matrix(d: int, p: int, q: int) -> np.ndarray:
    # z(p) x(q) on C^d: column x carries omega^{p*(x+q mod d)} at row x+q mod d.
    out = np.zeros((d, d), dtype=np.complex128)
    for x in range(d):
        r = (x + q) % d
        out[r, x] = _unit_root(p * r, d)
    return out


def _zx_matrix(d: int, pvec: Sequence[int], qvec: Sequence[int]) -> np.ndarray:
    mats = [_register_matrix(d, p % d, q % d) for p, q in zip(pvec, qvec)]
    return reduce(np.kron, mats)


def weyl(v: PhaseVector) -> np.ndarray:
    """Dense matrix of w(v) = tau^{-p.q} z(p) x(q), with p.q on the integer lifts."""
    check_cap("matrix dimension", v.d**v.n, DEFAULT_MATRIX_CAP)
    dot = sum(a * b for a, b in zip(v.p, v.q))
    return _tau_powers(v.d)[-dot % tau_order(v.d)] * _zx_matrix(v.d, v.p, v.q)


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
    """Index of each (p | q) row on the lifts, in zx_matrices order."""
    return rows @ d ** np.arange(rows.shape[-1] - 1, -1, -1)


def zx_matrices(d: int, n: int, *, cap: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """z(p) x(q) for every point (p | q) of Z_d^{2n}, stacked in point-index order.

    cap bounds d^n only: d^{4n} complex entries, 268 MB at (2, 6) and 4.3 GB at (2, 7) under the default.
    """
    _require_space(d, n)
    check_cap("matrix dimension", d**n, cap)
    return np.array([_zx_matrix(d, v[:n], v[n:]) for v in itertools.product(range(d), repeat=2 * n)])


def weyl_representation(m_sub: Subspace) -> list[tuple[PhaseVector, np.ndarray]]:
    """(m, w_B(m)) for every m in M, B its canonical generators, in lexicographic coefficient order.

    DEFAULT_MATRIX_CAP bounds d^n only: d^{3n} complex entries, 17 GB at (2, 10).
    """
    d, n = m_sub.d, m_sub.n
    check_cap("matrix dimension", d**n, DEFAULT_MATRIX_CAP)
    taus = _tau_powers(d)
    points, exponents = _words(d, np.array(m_sub.generators, dtype=np.int64).reshape(m_sub.dim, 2 * n))
    return [
        (_trusted(PhaseVector, d, n, tuple(p)), taus[e] * _zx_matrix(d, p[:n], p[n:]))
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
    return bool(np.max(np.abs(lhs - phase * _zx_matrix(u.d, s[:n], s[n:]))) <= tol)


def verify_commutation(u: PhaseVector, v: PhaseVector, *, tol: float = WEYL_TOL) -> bool:
    """Check w(u) w(v) = omega^{[u,v]} w(v) w(u) as matrices."""
    u._check_compatible(v)
    _, phase = _relation_phases(u.d, u.n, np.array(u.coords), np.array(v.coords))
    wu, wv = weyl(u), weyl(v)
    return bool(np.max(np.abs(wu @ wv - phase * (wv @ wu))) <= tol)


def verify_relations(d: int, n: int, zx: np.ndarray) -> tuple[bool, bool, float]:
    """verify_composition and verify_commutation over every pair of points, and the trace check.

    zx is the zx_matrices stack, so each z(p) x(q) is built once. Returns
    whether composition and commutation hold for all pairs within WEYL_TOL,
    and the largest |tr w(v) - d^n [v = 0]|. Each u meets the points v as
    many at a time as errors._batches fits at _RELATION_BYTES per unit, one
    matrix product per pair, so no result depends on the block.
    """
    _require_space(d, n)
    if zx.shape != (d ** (2 * n), d**n, d**n):
        raise ValueError(f"expected {d ** (2 * n)} Weyl matrices of size {d**n}: got shape {zx.shape}")
    points = np.array(list(itertools.product(range(d), repeat=2 * n)))
    # w(v) = tau^{-p.q} z(p) x(q).
    phases = _tau_powers(d)[-(points[:, :n] * points[:, n:]).sum(1) % tau_order(d), None, None]
    blocks = list(_batches(0, len(points), _RELATION_BYTES * d ** (2 * n)))
    comp_ok = comm_ok = True
    for i, u in enumerate(points):
        w_u = phases[i] * zx[i]
        composition, commutation = _relation_phases(d, n, u, points)
        sums = _point_index((u + points) % d, d)
        for v in blocks:
            w_v = phases[v] * zx[v]
            lhs = w_u @ w_v
            # Each right-hand side takes its phase, and then lhs minus itself, in its own buffer.
            rhs = zx[sums[v]]
            np.multiply(composition[v, None, None], rhs, out=rhs)
            comp_ok &= bool(np.max(np.abs(np.subtract(lhs, rhs, out=rhs))) <= WEYL_TOL)
            np.matmul(w_v, w_u, out=rhs)
            np.multiply(commutation[v, None, None], rhs, out=rhs)
            comm_ok &= bool(np.max(np.abs(np.subtract(lhs, rhs, out=rhs))) <= WEYL_TOL)
            del w_v, lhs, rhs  # the next block need not hold them
    trace = np.concatenate([np.trace(phases[v] * zx[v], axis1=1, axis2=2) for v in blocks])
    trace[0] -= d**n
    # Scalar abs: the array form rounds some moduli differently.
    return comp_ok, comm_ok, max(abs(x) for x in trace.tolist())
