"""Stabilizer states as (Lagrangian, coset) pairs.

A state |M, zeta> is identified by a Lagrangian subspace M of Z_d^{2n} and
the canonical representative zeta of a coset of V/M (zero on M's pivot
coordinates). Identity is structural: two states are equal iff their pairs
are. Hilbert-space vectors and projectors are derived artifacts, realized on
demand; the basis used for the basis-dependent Weyl operators is always M's
canonical generator list, so realizations are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .combinatorics import require_prime, stabilizer_count
from .errors import check_cap
from .weyl import DEFAULT_MATRIX_CAP, _omega_power, _word, basis_weyl_operator, tau_order
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


def _group_projector(terms: Sequence[tuple[PhaseVector, np.ndarray]], v: PhaseVector, d: int, n: int) -> np.ndarray:
    dim = d**n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for m, mat in terms:
        rho += _omega_power(d, _form_lift(v.coords, m.coords, n)) * mat
    return rho / d**n


def projector(m_sub: Subspace, v: PhaseVector, *, cap: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """Rank-one projector d^{-n} sum_{m in M} omega^{[v,m]} w_B(m)."""
    if not is_lagrangian(m_sub):
        raise ValueError("projector needs a Lagrangian subspace")
    if (v.d, v.n) != (m_sub.d, m_sub.n):
        raise ValueError("vector lives in a different space")
    return _group_projector(weyl_representation(m_sub, cap=cap), v, m_sub.d, m_sub.n)


def _extract_unit_vector(rho: np.ndarray) -> np.ndarray:
    # Rank-one extraction without an eigensolver: the best column of |psi><psi|
    # is psi itself up to scale. Global phase: first significant amplitude in
    # lexicographic basis order made real positive.
    norms = np.linalg.norm(rho, axis=0)
    vec = rho[:, int(np.argmax(norms))]
    vec = vec / np.linalg.norm(vec)
    threshold = 0.5 * float(np.max(np.abs(vec)))
    idx = next(i for i in range(len(vec)) if abs(vec[i]) > threshold)
    pivot = vec[idx]
    return vec * (pivot.conjugate() / abs(pivot))


def state_vector(state: StabilizerState, *, cap: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """Unit vector satisfying omega^{[zeta,m]} w_B(m) |psi> = |psi> for m in M."""
    return _extract_unit_vector(projector(state.lagrangian, state.zeta, cap=cap))


def stabilizer_basis(m_sub: Subspace, *, cap: int = DEFAULT_MATRIX_CAP) -> list[tuple[PhaseVector, np.ndarray]]:
    """The orthonormal basis of all d^n states of one Lagrangian.

    Shares the Weyl realizations across cosets; returned in enumeration order
    of the canonical coset representatives.
    """
    if not is_lagrangian(m_sub):
        raise ValueError("needs a Lagrangian subspace")
    terms = weyl_representation(m_sub, cap=cap)
    out = []
    for zeta in coset_representatives(m_sub):
        rho = _group_projector(terms, zeta, m_sub.d, m_sub.n)
        out.append((zeta, _extract_unit_vector(rho)))
    return out


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


def overlap_table(m_sub: Subspace, n_sub: Subspace) -> list[list[Fraction]]:
    """overlap_exact for every state of M (rows) against every state of N.

    Rows and columns follow coset_representatives order, as stabilizer_basis
    does. Each key is computed once, so a block costs O(d^n) form evaluations
    per generator of M cap N.
    """
    value, key_m, key_n = _overlap_rule(m_sub, n_sub)
    zero = Fraction(0)
    keys_m = [key_m(zeta) for zeta in _coset_rows(m_sub)]
    keys_n = [key_n(iota) for iota in _coset_rows(n_sub)]
    return [[value if row == col else zero for col in keys_n] for row in keys_m]


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
