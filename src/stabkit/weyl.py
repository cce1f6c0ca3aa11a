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

the product rule that _word applies in closed form below. The point
v = (p | q) has index sum_i v_i d^{2n-1-i} on its lifts (lexicographic, p_1
most significant): zx_matrices and the stabilizer key tables share this
order.

A word w(u_1)^{c_1} ... w(u_k)^{c_k}, rows
u_i = (p_i | q_i) on the lifts and c_i mod d, is tau^e z(P) x(Q) in closed form,
with (P | Q) = sum_i c_i u_i mod d and

    e = -(sum_i c_i^2 p_i.q_i + 2 sum_{i<j} c_i c_j q_i.p_j) mod the order of tau:

the product rule applied factor by factor, since reducing a partial sum mod d
moves e only by multiples of 2d, which the order of tau divides. Matrices on
C^{d^n} (computational basis |q_1..q_n>, lexicographic, q_1 most significant)
are realized on demand and capped by DEFAULT_MATRIX_CAP.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import check_cap
from .symplectic import PhaseVector, Row

DEFAULT_MATRIX_CAP = 4096
# The working memory of one numeric-path block, in bytes, in every layer: realization, either numeric engine,
# stabilizer.state_deviations and verify_relations.
_WORK_BYTES = 2**19
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


def weyl(v: PhaseVector, *, cap: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """Dense matrix of w(v) = tau^{-p.q} z(p) x(q), with p.q on the integer lifts."""
    check_cap("matrix dimension", v.d**v.n, cap)
    dot = sum(a * b for a, b in zip(v.p, v.q))
    return _tau_powers(v.d)[-dot % tau_order(v.d)] * _zx_matrix(v.d, v.p, v.q)


def _word(d: int, n: int, rows: Sequence[Row], coeffs: Sequence[int]) -> tuple[int, Row]:
    """(e, (P | Q)) of the word prod_i w(u_i)^{c_i}, by the closed form above."""
    e, point = 0, [0] * (2 * n)
    for row, c in zip(rows, coeffs, strict=True):
        c %= d
        p, q = row[:n], row[n:]
        # This factor's c^2 p.q, and 2c (q-part of the earlier factors' sum).p.
        e -= c * c * sum(a * b for a, b in zip(p, q)) + 2 * c * sum(a * b for a, b in zip(point[n:], p))
        point = [x + c * y for x, y in zip(point, row)]
    return e % tau_order(d), tuple(x % d for x in point)


def _point_index(rows: np.ndarray, d: int) -> np.ndarray:
    """Index of each (p | q) row on the lifts, in zx_matrices order."""
    return rows @ d ** np.arange(rows.shape[-1] - 1, -1, -1)


def zx_matrices(d: int, n: int, *, cap: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """z(p) x(q) for every point (p | q) of Z_d^{2n}, stacked in point-index order."""
    check_cap("matrix dimension", d**n, cap)
    return np.array([_zx_matrix(d, v[:n], v[n:]) for v in itertools.product(range(d), repeat=2 * n)])


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


def verify_composition(u: PhaseVector, v: PhaseVector, *, tol: float = WEYL_TOL, cap: int = DEFAULT_MATRIX_CAP) -> bool:
    """Check w(u) w(v) = tau^{[u,v]} w(u+v) as matrices.

    [u,v] is the integer-lift value and u+v on the right is the integer sum;
    both sides are then honest operator identities for every d.
    """
    u._check_compatible(v)
    n = u.n
    phase, _ = _relation_phases(u.d, n, np.array(u.coords), np.array(v.coords))
    s = [a + b for a, b in zip(u.coords, v.coords)]
    lhs = weyl(u, cap=cap) @ weyl(v, cap=cap)
    return bool(np.max(np.abs(lhs - phase * _zx_matrix(u.d, s[:n], s[n:]))) <= tol)


def verify_commutation(u: PhaseVector, v: PhaseVector, *, tol: float = WEYL_TOL, cap: int = DEFAULT_MATRIX_CAP) -> bool:
    """Check w(u) w(v) = omega^{[u,v]} w(v) w(u) as matrices."""
    u._check_compatible(v)
    _, phase = _relation_phases(u.d, u.n, np.array(u.coords), np.array(v.coords))
    wu = weyl(u, cap=cap)
    wv = weyl(v, cap=cap)
    return bool(np.max(np.abs(wu @ wv - phase * (wv @ wu))) <= tol)


def verify_relations(d: int, n: int, zx: np.ndarray) -> tuple[bool, bool, float]:
    """verify_composition and verify_commutation over every pair of points, and the trace check.

    zx is the zx_matrices stack, so each z(p) x(q) is built once. Returns
    whether composition and commutation hold for all pairs within WEYL_TOL,
    and the largest |tr w(v) - d^n [v = 0]|. Each u meets the points v as
    many at a time as fit _WORK_BYTES at _RELATION_BYTES per unit (one at
    least), one matrix product per pair, so no result depends on the block.
    """
    points = np.array(list(itertools.product(range(d), repeat=2 * n)))
    # w(v) = tau^{-p.q} z(p) x(q).
    phases = _tau_powers(d)[-(points[:, :n] * points[:, n:]).sum(1) % tau_order(d), None, None]
    step = max(1, _WORK_BYTES // (_RELATION_BYTES * d ** (2 * n)))
    blocks = [slice(start, start + step) for start in range(0, len(points), step)]
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
