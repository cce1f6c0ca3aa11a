"""Shared fixtures-by-function and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from stabkit import (
    Subspace,
    coset_representatives,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    is_isotropic,
    realized_states,
    symplectic_form,
    weyl_representation,
)
from stabkit.symplectic import _coset_rows, _form_lift
from stabkit.weyl import _omega_power, _word, tau_order


@lru_cache(maxsize=None)
def cached_states(d: int, n: int):
    """Realized (state, vector) pairs, shared across test modules."""
    return tuple(realized_states(d, n))


def source_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, for `python -m stabkit` children."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def cached_vectors(d: int, n: int) -> list[np.ndarray]:
    return [vec for _, vec in cached_states(d, n)]


def lagrangians_by_filter(d: int, n: int) -> list:
    """Oracle: every n-dim subspace of Z_d^{2n} kept when isotropic, in enumeration order."""
    return [s for s in enumerate_subspaces(d, 2 * n, n) if is_isotropic(s)]


def symplectic_complement(sub):
    """Oracle: W^perp, the kernel of the functionals v -> [v, g] = (g_q | -g_p).v, g a generator of W.

    One kernel vector per non-pivot column j of the functionals' RREF: 1 at j, -row[j] at each pivot.
    """
    n = sub.n
    rows = Subspace.from_rows([g[n:] + tuple(-x for x in g[:n]) for g in sub.generators], d=sub.d, width=2 * n)
    kernel = []
    for j in (j for j in range(2 * n) if j not in rows.pivots):
        v = [0] * (2 * n)
        v[j] = 1
        for row, c in zip(rows.generators, rows.pivots):
            v[c] = -row[j]
        kernel.append(v)
    return Subspace.from_rows(kernel, d=sub.d, width=2 * n)


def weyl_word_by_fold(d, n, rows, coefficients) -> tuple[int, tuple[int, ...]]:
    """Oracle: (e, (P | Q)) of prod_i w(u_i)^{c_i}, multiplied one factor w(u) = tau^{-p_u.q_u} zx(u) at a time.

    On the lifts, tau^a zx(P | Q) . tau^b zx(u) = tau^{a + b - 2 Q.p_u} zx(P + u mod d).
    """
    e, point = 0, (0,) * (2 * n)
    for u, c in zip(rows, coefficients):
        for _ in range(c % d):
            b = -sum(x * y for x, y in zip(u[:n], u[n:]))
            e = (e + b - 2 * sum(x * y for x, y in zip(point[n:], u[:n]))) % tau_order(d)
            point = tuple((x + y) % d for x, y in zip(point, u))
    return e, point


def overlap_keys_by_intersection(m_sub, n_sub):
    """Witness: the overlap rule keyed on the generators g of K = M cap N, found by intersect.

    The key of zeta under M is (2[zeta,g] + e_M(g)) mod the order of tau over
    the generators g, e_M(g) the exponent of w_{B_M}(g): its coefficients in
    the canonical basis B_M are its entries at M's pivots, because B_M is in
    RREF. Returns d^{-n} |K| and the dim(K)-column keys of every state of M
    and of N, in coset_representatives order.
    """
    d, n = m_sub.d, m_sub.n
    k_sub = intersect(m_sub, n_sub)
    order = tau_order(d)

    def keys(sub):
        terms = [(g, _word(d, n, sub.generators, [g[c] for c in sub.pivots])[0]) for g in k_sub.generators]
        rows = [[(2 * _form_lift(zeta, g, n) + e) % order for g, e in terms] for zeta in _coset_rows(sub)]
        return np.array(rows, dtype=np.int64).reshape(d**n, k_sub.dim)

    return Fraction(d**k_sub.dim, d**n), keys(m_sub), keys(n_sub)


def overlaps_on_every_shared_point(d, n, points, keys, their_points, their_keys):
    """Oracle: stabilizer._overlaps by comparing lambda on every point M and N share, not on a basis of M cap N.

    Takes the rule's arrays (M's points and keys, and each N's, stacked) and
    returns the same pair: |M cap N| for each N, and (N, rows of M, rows of N)
    booleans.
    """
    column = np.full(d ** (2 * n), -1)
    column[points] = np.arange(len(points))
    mine = column[their_points]  # (N, element of N): M's column, or -1 off M
    shared = mine >= 0
    agree = keys[:, mine].swapaxes(0, 1)[:, :, None] == their_keys[:, None]
    agree |= ~shared[:, None, None]
    return shared.sum(1), agree.all(-1)


def dense_projector(m_sub, v, terms=None) -> np.ndarray:
    """Oracle: the rank-one projector d^{-n} sum_{m in M} omega^{[v,m]} w_B(m), summed as dense matrices."""
    d, n = m_sub.d, m_sub.n
    rho = np.zeros((d**n, d**n), dtype=np.complex128)
    for m, mat in weyl_representation(m_sub) if terms is None else terms:
        rho += _omega_power(d, symplectic_form(v, m)) * mat
    return rho / d**n


def _unit_column(rho: np.ndarray) -> np.ndarray:
    # The best column of |psi><psi| is psi up to scale. Global phase: the first
    # amplitude above half the largest modulus is made real positive.
    norms = np.linalg.norm(rho, axis=0)
    vec = rho[:, int(np.argmax(norms))]
    vec = vec / np.linalg.norm(vec)
    threshold = 0.5 * float(np.max(np.abs(vec)))
    pivot = next(a for a in vec if abs(a) > threshold)
    return vec * (pivot.conjugate() / abs(pivot))


def dense_state_vector(state) -> np.ndarray:
    """Oracle: the unit vector of a state, read off its dense projector."""
    return _unit_column(dense_projector(state.lagrangian, state.zeta))


def dense_stabilizer_basis(m_sub) -> list:
    """Oracle: (zeta, vector) for every coset of M, each from its dense projector, sharing the Weyl matrices."""
    terms = weyl_representation(m_sub)
    return [(zeta, _unit_column(dense_projector(m_sub, zeta, terms))) for zeta in coset_representatives(m_sub)]


def z_fixed_by_every_element(d: int, n: int, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Oracle: whether k(zeta, z, x) = 0 for every Z-only element z, over (table, coset, x), one element at a time.

    rows and keys are the full tables, stacked as stabilizer._block returns them, and x runs
    over Z_d^n in lexicographic order. k(zeta, m, x) = lambda(zeta, m) +
    2 P_m.(x + Q_m) mod the order of tau.
    """
    order = tau_order(d)
    grid = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(-1, n)
    p, q = rows[..., :n].astype(np.int64), rows[..., n:].astype(np.int64)
    k = keys.astype(np.int64) + 2 * (p * q).sum(-1)[:, None, :]
    x_terms = 2 * p @ grid.T  # 2 P_m.x over (table, element, x)
    z_only = ~q.any(-1)
    fixed = np.ones((*keys.shape[:2], len(grid)), dtype=bool)
    for j in range(keys.shape[2]):
        fixed &= ((k[:, :, j, None] + x_terms[:, None, j]) % order == 0) | ~z_only[:, j, None, None]
    return fixed


def pairwise_sum_tree(values) -> float:
    """Oracle: the fixed reduction tree in plain Python floats.

    Each level adds adjacent pairs and carries an odd tail up unchanged.
    """
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def pascal_binomial(n: int, k: int, _memo={}) -> int:
    """Oracle: additive Pascal recursion, no multiplication or division."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    key = (n, k)
    if key not in _memo:
        _memo[key] = pascal_binomial(n - 1, k - 1) + pascal_binomial(n - 1, k)
    return _memo[key]


def gaussian_pascal_check(n: int, k: int, d: int) -> bool:
    """Oracle: whether binom(n,k)_d == d^k binom(n-1,k)_d + binom(n-1,k-1)_d, the q-Pascal recursion."""
    lower = gaussian_binomial(n - 1, k - 1, d) if k >= 1 else 0
    return gaussian_binomial(n, k, d) == d**k * gaussian_binomial(n - 1, k, d) + lower


def count_subspaces_bruteforce(d: int, m: int, k: int) -> int:
    """Oracle: count k-dim subspaces of Z_d^m by deduplicating raw spans."""
    if k == 0:
        return 1
    nonzero = [v for v in itertools.product(range(d), repeat=m) if any(v)]
    spans = set()
    for combo in itertools.combinations(nonzero, k):
        span = set()
        for coeffs in itertools.product(range(d), repeat=k):
            vec = [0] * m
            for c, v in zip(coeffs, combo):
                for j in range(m):
                    vec[j] = (vec[j] + c * v[j]) % d
            span.add(tuple(vec))
        if len(span) == d**k:
            spans.add(frozenset(span))
    return len(spans)


def single_qubit_rays() -> list[np.ndarray]:
    """The six single-qubit stabilizer rays, written out by hand."""
    s = 1 / np.sqrt(2)
    return [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([s, s], dtype=complex),
        np.array([s, -s], dtype=complex),
        np.array([s, 1j * s], dtype=complex),
        np.array([s, -1j * s], dtype=complex),
    ]
