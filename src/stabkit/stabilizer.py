"""Stabilizer states as (Lagrangian, coset) pairs.

A state |M, zeta> is identified by a Lagrangian subspace M of Z_d^{2n} and
the canonical representative zeta of a coset of V/M (zero on M's pivot
coordinates). Identity is structural: two states are equal iff their pairs
are. Weyl operators w_B use M's canonical generator list B as basis.

The state's vector, fixed by every omega^{[zeta,m]} w_B(m), has a closed form
on integer rows. With w_B(m) = tau^{e_m} z(P_m) x(Q_m) (weyl._word) and
k(zeta, m, x) = 2[zeta,m] + e_m + 2 P_m.(x + Q_m) mod the order of tau, let x0
be the lexicographically first x in Z_d^n with k(zeta, z, x) = 0 for every z
in M_Z = {z in M : Q_z = 0}. The vector is |Q(M)|^{-1/2} tau^{k(zeta,m,x0)} at
x0 + Q_m mod d and 0 elsewhere. It is well defined because m -> omega^{[zeta,m]}
w_B(m) is a representation of M, so the amplitude depends only on m + M_Z;
k = 0 at x0 makes the first nonzero amplitude real positive exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .combinatorics import require_prime, stabilizer_count
from .errors import check_cap
from .weyl import DEFAULT_MATRIX_CAP, TauPhase, _word, basis_weyl_operator, tau_order
from .symplectic import (
    PhaseVector,
    Row,
    Subspace,
    _complete_basis,
    _coset_rows,
    _form_lift,
    _trusted,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    intersect,
    is_lagrangian,
)

DEFAULT_STATE_CAP = 10**6


@dataclass(frozen=True)
class StabilizerState:
    lagrangian: Subspace
    zeta: PhaseVector

    def __post_init__(self) -> None:
        if not is_lagrangian(self.lagrangian):
            raise ValueError("subspace is not Lagrangian")
        if canonical_coset_representative(self.lagrangian, self.zeta) != self.zeta:
            raise ValueError("coset representative is not canonical; use from_coset")

    @classmethod
    def from_coset(cls, lagrangian: Subspace, v: PhaseVector) -> "StabilizerState":
        return cls(lagrangian, canonical_coset_representative(lagrangian, v))

    @property
    def d(self) -> int:
        return self.lagrangian.d

    @property
    def n(self) -> int:
        return self.lagrangian.n

    @property
    def basis(self) -> tuple[PhaseVector, ...]:
        return self.lagrangian.generator_vectors()

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
        sub = Subspace.from_json_dict(obj["lagrangian"])
        return cls(sub, PhaseVector(obj["d"], obj["n"], tuple(obj["zeta"])))


def weyl_representation(m_sub: Subspace, *, cap: int = DEFAULT_MATRIX_CAP) -> list[tuple[PhaseVector, np.ndarray]]:
    """(m, w_B(m)) for every m in M, B its canonical generators, in lexicographic coefficient order."""
    basis = m_sub.generator_vectors()
    ops = [basis_weyl_operator(basis, c) for c in itertools.product(range(m_sub.d), repeat=m_sub.dim)]
    return [(op.point, op.matrix(cap=cap)) for op in ops]


def stabilizer_basis(m_sub: Subspace, *, cap: int = DEFAULT_MATRIX_CAP) -> list[tuple[PhaseVector, np.ndarray]]:
    """The d^n states of one Lagrangian by the closed form above, in coset_representatives order."""
    if not is_lagrangian(m_sub):
        raise ValueError("needs a Lagrangian subspace")
    d, n = m_sub.d, m_sub.n
    check_cap("matrix dimension", d**n, cap)
    order = tau_order(d)
    # Z_d^n in lexicographic order: the coefficients of M's elements, and the basis points x.
    grid = np.array(list(itertools.product(range(d), repeat=n)))
    words = [_word(d, n, m_sub.generators, c) for c in grid.tolist()]
    e = np.array([w[0] for w in words])
    p, q = np.array([w[1] for w in words]).reshape(-1, 2, n).transpose(1, 0, 2)
    zetas = list(coset_representatives(m_sub))
    z = np.array([zeta.coords for zeta in zetas])
    # k(zeta, m, x) over (coset, element), less its x-dependent term 2 P_m.x.
    k = 2 * (z[:, :n] @ q.T - z[:, n:] @ p.T) + e + 2 * (p * q).sum(1)
    z_only = ~q.any(1)
    fixed = ((k[:, z_only, None] + 2 * p[z_only] @ grid.T) % order == 0).all(1)
    if not fixed.any(1).all():
        raise RuntimeError("no basis point is fixed by the Z-only elements")
    x0 = grid[fixed.argmax(1)]
    k = (k + 2 * x0 @ p.T) % order
    support = ((x0[:, None, :] + q) % d) @ d ** np.arange(n - 1, -1, -1)
    tau_powers = np.array([TauPhase(d, j).value() for j in range(order)])
    modulus = 1 / math.sqrt(d**n // int(z_only.sum()))  # |Q(M)|^{-1/2}, as |Q(M)| |M_Z| = |M|
    vecs = np.zeros((len(zetas), d**n), dtype=np.complex128)
    vecs[np.arange(len(zetas))[:, None], support] = modulus * tau_powers[k]
    return list(zip(zetas, vecs))


def _overlap_key(m_sub: Subspace, k_sub: Subspace) -> Callable[[Row], tuple[int, ...]]:
    """zeta -> (2[zeta,g] + e_M(g)) mod the order of tau, over the generators g of K.

    tau^{e_M(g)} is the phase of w_{B_M}(g), B_M the canonical basis of M; the
    coefficients of g in B_M are its entries at M's pivots, because B_M is in
    RREF. 2[zeta,g] may use the integer lift, since 2 (x mod d) = 2x (mod 2d).
    """
    d, n, pivots = m_sub.d, m_sub.n, m_sub.pivots
    order = tau_order(d)
    terms = [(g, _word(d, n, m_sub.generators, [g[c] for c in pivots])[0]) for g in k_sub.generators]
    return lambda zeta: tuple((2 * _form_lift(zeta, g, n) + e) % order for g, e in terms)


def _overlap_rule(m_sub: Subspace, n_sub: Subspace) -> tuple[Fraction, Callable, Callable]:
    """The overlap rule for the states of M against those of N, as a key match.

    |<M,zeta|N,iota>|^2 equals d^{-n} |K| with K = M cap N when every Weyl
    operator on K has the same eigenvalue on both states, and 0 otherwise. The
    two states use their own canonical bases, whose representations of K
    differ by a character when d is even, so the condition reads
    omega^{[zeta,g]} tau^{e_M(g)} = omega^{[iota,g]} tau^{e_N(g)} on every
    generator g of K: exactly when the _overlap_key of zeta under M equals
    that of iota under N. Returns d^{-n} |K| and the key functions of M and N.
    """
    if (m_sub.d, m_sub.n) != (n_sub.d, n_sub.n):
        raise ValueError("states live in different spaces")
    k_sub = intersect(m_sub, n_sub)
    value = Fraction(m_sub.d**k_sub.dim, m_sub.d**m_sub.n)
    return value, _overlap_key(m_sub, k_sub), _overlap_key(n_sub, k_sub)


def overlap_exact(a: StabilizerState, b: StabilizerState) -> Fraction:
    """|<M,zeta|N,iota>|^2 of the realized states, as an exact rational."""
    value, key_m, key_n = _overlap_rule(a.lagrangian, b.lagrangian)
    return value if key_m(a.zeta.coords) == key_n(b.zeta.coords) else Fraction(0)


def overlap_keys(m_sub: Subspace, n_sub: Subspace) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """The overlap rule for every state of M against every state of N, as integer keys.

    Returns d^{-n} |K| and one key row per state of M and of N, in
    coset_representatives order, as stabilizer_basis does: the i-th state of
    M and the j-th of N overlap with that value when keys_m[i] == keys_n[j],
    and are orthogonal otherwise. Key rows have dim(M cap N) entries; when it
    is 0, every key is empty and every pair overlaps.
    """
    value, key_m, key_n = _overlap_rule(m_sub, n_sub)
    keys = lambda sub, key: np.array([key(zeta) for zeta in _coset_rows(sub)], dtype=np.int64)
    return value, keys(m_sub, key_m), keys(n_sub, key_n)


def overlap_table(m_sub: Subspace, n_sub: Subspace) -> list[list[Fraction]]:
    """overlap_exact for every state of M (rows) against every state of N, from overlap_keys."""
    value, keys_m, keys_n = overlap_keys(m_sub, n_sub)
    zero = Fraction(0)
    match = (keys_m[:, None] == keys_n[None, :]).all(-1)
    return [[value if hit else zero for hit in row] for row in match.tolist()]


def enumerate_states(d: int, n: int, *, cap: int = DEFAULT_STATE_CAP) -> Iterator[StabilizerState]:
    """All S(d,n) stabilizer states: Lagrangians outer, coset reps inner."""
    require_prime(d)
    check_cap("states", stabilizer_count(d, n), cap)
    return (
        _trusted(StabilizerState, m_sub, zeta)
        for m_sub in enumerate_lagrangians(d, n)
        for zeta in coset_representatives(m_sub)
    )


def realized_states(
    d: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP, matrix_cap: int = DEFAULT_MATRIX_CAP
) -> list[tuple[StabilizerState, np.ndarray]]:
    """Every stabilizer state with its Hilbert-space vector, in enumeration order."""
    require_prime(d)
    check_cap("realized states", stabilizer_count(d, n), state_cap)
    check_cap("matrix dimension", d**n, matrix_cap)
    out = []
    for m_sub in enumerate_lagrangians(d, n):
        for zeta, vec in stabilizer_basis(m_sub, cap=matrix_cap):
            out.append((_trusted(StabilizerState, m_sub, zeta), vec))
    return out


def compatible_bases(m_sub: Subspace, n_sub: Subspace) -> tuple[tuple[PhaseVector, ...], tuple[PhaseVector, ...]]:
    """Bases of M and N extending a common basis of K = M cap N.

    With these, w_{B_M}(m) and w_{B_N}(m) agree on K and
    tr(w_{B_M}(m) w_{B_N}(-m')) = d^n delta_{m,m'}.
    """
    if not (is_lagrangian(m_sub) and is_lagrangian(n_sub)):
        raise ValueError("compatible bases need Lagrangian subspaces")
    k_sub = intersect(m_sub, n_sub)
    shared = list(k_sub.generators)
    rows_m = shared + _complete_basis(k_sub, m_sub)
    rows_n = shared + _complete_basis(k_sub, n_sub)
    to_vecs = lambda rows: tuple(PhaseVector(m_sub.d, m_sub.n, r) for r in rows)
    return to_vecs(rows_m), to_vecs(rows_n)
