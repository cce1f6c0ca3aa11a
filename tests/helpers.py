"""Shared fixtures-by-function and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np

from stabkit import (
    FramePotentialReport,
    PhaseVector,
    StabilizerState,
    Subspace,
    coset_representatives,
    frame_potential_report,
    gaussian_binomial,
    is_isotropic,
    is_lagrangian,
    realized_states,
    symplectic_form,
    weyl_representation,
    zx_monomials,
)
from stabkit.combinatorics import require_prime
from stabkit.errors import DEFAULT_ENUM_CAP, check_cap
from stabkit.symplectic import _check_same_ambient, _coset_rows, _form_lift, _form_row, _rref, _rref_rows
from stabkit.weyl import _omega_power, _tau_powers, _unit_root, tau_order


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


def zero_vector(d: int, n: int) -> PhaseVector:
    return PhaseVector(d, n, (0,) * (2 * n))


def zero_subspace(d: int, width: int) -> Subspace:
    return Subspace(d, width, ())


def from_rows(rows, *, d: int, width: int) -> Subspace:
    """The span of integer rows, each of length width: their RREF, built by the validating Subspace constructor."""
    require_prime(d)  # _rref inverts pivots mod d
    reduced, pivots = _rref(rows, d)
    return Subspace(d, width, tuple(tuple(row) for row in reduced[: len(pivots)]))


def contains_coords(sub, coords) -> bool:
    return not any(sub.reduce_coords(coords))


def vectors(sub):
    """All d^dim elements of sub, in lexicographic coefficient order."""
    for coeffs in itertools.product(range(sub.d), repeat=sub.dim):
        v = [0] * sub.width
        for c, row in zip(coeffs, sub.generators):
            if c:
                v = [(x + c * y) % sub.d for x, y in zip(v, row)]
        yield tuple(v)


def rebuilt(obj: dict):
    """The Subspace, StabilizerState or FramePotentialReport whose to_json_dict() is obj, rebuilt by the public
    constructors (Fraction("p/q") for the rationals). A report must also equal the exact engines' report for its
    (d, n, t). An AssertionError unless the rebuilt object writes obj back exactly, as JSON text."""
    if "generators" in obj:
        assert obj["dim"] == len(obj["generators"])
        value = Subspace(obj["d"], 2 * obj["n"], tuple(map(tuple, obj["generators"])))
    elif "lagrangian" in obj:
        value = StabilizerState(rebuilt(obj["lagrangian"]), PhaseVector(obj["d"], obj["n"], tuple(obj["zeta"])))
    else:
        exact = (Fraction(obj[key]) for key in ("recursion", "combinatorial", "welch"))
        value = FramePotentialReport(obj["d"], obj["n"], obj["t"], *exact, obj["is_design"], obj["bruteforce"])
        assert value == frame_potential_report(value.d, value.n, value.t, bruteforce=value.value_bruteforce)
    assert json.dumps(value.to_json_dict()) == json.dumps(obj)  # as text, so True is no 1 and 0.0 no 0
    return value


def intersect(a, b):
    """Oracle: A cap B via the Zassenhaus block trick. The reduced rows with a zero left half
    have their pivots, cleared in every other row, on the right: those halves are RREF, as the constructor checks."""
    _check_same_ambient(a, b)
    w = a.width
    rows = [list(g) + list(g) for g in a.generators] + [list(g) + [0] * w for g in b.generators]
    reduced, pivots = _rref(rows, a.d)
    return Subspace(a.d, w, tuple(tuple(row[w:]) for row in reduced[: len(pivots)] if not any(row[:w])))


def enumerate_subspaces(d: int, ambient_dim: int, k: int, *, cap: int = DEFAULT_ENUM_CAP):
    """Oracle: every k-dimensional subspace of Z_d^ambient_dim exactly once, each built by the public constructor.

    Order: pivot-column pattern (lexicographic), then free entries
    (lexicographic, row-major). The total equals binom(ambient_dim, k)_d.
    """
    require_prime(d)
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be positive")
    if not 0 <= k <= ambient_dim:
        raise ValueError(f"need 0 <= k <= ambient dimension, got k={k}, ambient={ambient_dim}")
    check_cap("subspaces", gaussian_binomial(ambient_dim, k, d), cap)
    return (
        Subspace(d, ambient_dim, rows)
        for pivots in itertools.combinations(range(ambient_dim), k)
        for rows in itertools.product(*_rref_rows(d, ambient_dim, pivots))
    )


def _complete_basis(inner, outer) -> list:
    """Rows of outer's generators that extend a basis of inner to one of outer."""
    added = []
    for g in outer.generators:
        _, pivots = _rref(list(inner.generators) + added + [g], inner.d)
        if len(pivots) > inner.dim + len(added):
            added.append(g)
    return added


def _dual_partners(k_sub, a_rows) -> list:
    """Vectors b_j in K^perp with [a_i, b_j] = delta_ij and [b_i, b_j] = 0.

    Together with K and the a_i this is a symplectic half-basis of the
    reduction K^perp/K adapted to the Lagrangian containing the a_i.
    """
    d, w, n = k_sub.d, k_sub.width, k_sub.n
    m, k = len(a_rows), k_sub.dim
    # [g, c_j] = 0 for g in K and [a_i, c_j] = delta_ij: the constraint rows, then one column per j on the right.
    constraints = [_form_row(g, n, d) for g in k_sub.generators] + [_form_row(a, n, d) for a in a_rows]
    reduced, pivots = _rref([row + tuple(int(i == k + j) for j in range(m)) for i, row in enumerate(constraints)], d)
    if any(c >= w for c in pivots):  # a pivot on the right: 0 = 1 in some row
        raise RuntimeError("dual-partner system must be solvable")
    # The particular solutions, free variables zero.
    cs = [[0] * w for _ in range(m)]
    for row, c in zip(reduced, pivots):
        for j in range(m):
            cs[j][c] = row[w + j]
    s = [[_form_lift(ci, cj, n) % d for cj in cs] for ci in cs]
    out = []
    for i in range(m):
        b = list(cs[i])
        for l in range(i + 1, m):
            if s[i][l]:
                b = [(x - s[i][l] * y) % d for x, y in zip(b, a_rows[l])]
        out.append(tuple(b))
    if not all(_form_lift(a_rows[i], out[j], n) % d == (i == j) for i in range(m) for j in range(m)):
        raise RuntimeError("dual partners must pair as [a_i, b_j] = delta_ij")
    if not all(_form_lift(out[i], out[j], n) % d == 0 for i in range(m) for j in range(m)):
        raise RuntimeError("dual partners must span an isotropic subspace")
    return out


def extensions_through(m_sub, k_sub, *, cap: int = DEFAULT_ENUM_CAP):
    """Oracle: all Lagrangians N with M cap N = K, for K a subspace of the Lagrangian M.

    Constructed directly through the reduction K^perp/K: Lagrangians meeting M
    exactly in K correspond one-to-one to symmetric (n-k)x(n-k) matrices over
    Z_d, giving d^{(n-k)(n-k+1)/2} of them. This is the formula-independent
    counterpart of the filter in enumerate_lagrangians.
    """
    if not is_lagrangian(m_sub):
        raise ValueError("extensions need a Lagrangian reference")
    _check_same_ambient(m_sub, k_sub)
    if not all(contains_coords(m_sub, g) for g in k_sub.generators):
        raise ValueError("K must be contained in M")
    m = m_sub.dim - k_sub.dim
    check_cap("Lagrangian extensions", m_sub.d ** (m * (m + 1) // 2), cap)
    return _iter_extensions(m_sub, k_sub, m)


def _iter_extensions(m_sub, k_sub, m: int):
    if m == 0:
        yield m_sub
        return
    d, w = m_sub.d, m_sub.width
    a_rows = _complete_basis(k_sub, m_sub)
    b_rows = _dual_partners(k_sub, a_rows)
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    for vals in itertools.product(range(d), repeat=len(upper)):
        a_mat = [[0] * m for _ in range(m)]
        for (i, j), v in zip(upper, vals):
            a_mat[i][j] = a_mat[j][i] = v
        gens = [list(g) for g in k_sub.generators]
        for j in range(m):
            row = list(b_rows[j])
            for i in range(m):
                if a_mat[j][i]:
                    row = [(x + a_mat[j][i] * y) % d for x, y in zip(row, a_rows[i])]
            gens.append(row)
        yield from_rows(gens, d=d, width=w)


def lagrangians_by_filter(d: int, n: int) -> list:
    """Oracle: every n-dim subspace of Z_d^{2n} kept when isotropic, in enumeration order."""
    return [s for s in enumerate_subspaces(d, 2 * n, n) if is_isotropic(s)]


def symplectic_complement(sub):
    """Oracle: W^perp, the kernel of the functionals v -> [v, g] = (g_q | -g_p).v, g a generator of W.

    One kernel vector per non-pivot column j of the functionals' RREF: 1 at j, -row[j] at each pivot.
    """
    n = sub.n
    rows = from_rows([g[n:] + tuple(-x for x in g[:n]) for g in sub.generators], d=sub.d, width=2 * n)
    kernel = []
    for j in (j for j in range(2 * n) if j not in rows.pivots):
        v = [0] * (2 * n)
        v[j] = 1
        for row, c in zip(rows.generators, rows.pivots):
            v[c] = -row[j]
        kernel.append(v)
    return from_rows(kernel, d=sub.d, width=2 * n)


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


def zx_matrix(d, p, q):
    """Oracle: the dense z(p) x(q), the np.kron fold of each register's d x d matrix in register order.

    On one register, column x carries omega^{p (x+q mod d)} at row x+q mod d.
    """
    mats = []
    for a, b in zip(p, q):
        mat = np.zeros((d, d), dtype=np.complex128)
        for x in range(d):
            mat[(x + b) % d, x] = _unit_root(a * ((x + b) % d), d)
        mats.append(mat)
    return reduce(np.kron, mats)


def zx_dense(d, n):
    """Oracle: zx_matrix for every point (p | q) of Z_d^{2n}, stacked in point-index order."""
    return np.array([zx_matrix(d, v[:n], v[n:]) for v in itertools.product(range(d), repeat=2 * n)])


MALFORMED = ("repeated row", "float rows", "short rows", "short values", "one array")


def malformed_monomials(d, n):
    """{what: zx} for pairs that are not zx_monomials(d, n), each what in MALFORMED: bad rows or wrong shapes."""
    rows, values = zx_monomials(d, n)
    repeated = rows.copy()
    repeated[1, 0] = repeated[1, 1]
    zx = (repeated, values), (rows.astype(float), values), (rows[:-1], values), (rows, values[:, :-1]), (rows,)
    return dict(zip(MALFORMED, zx, strict=True))


def weyl_terms_by_fold(m_sub):
    """Oracle: weyl_representation's (m, w_B(m)) pairs in its order, lazily, each word by weyl_word_by_fold.

    One d^n x d^n matrix is held at a time, so a dense projector stays small past the exhaustive frontier.
    """
    d, n = m_sub.d, m_sub.n
    for coeffs in itertools.product(range(d), repeat=m_sub.dim):
        e, point = weyl_word_by_fold(d, n, m_sub.generators, coeffs)
        yield PhaseVector(d, n, point), _tau_powers(d)[e] * zx_matrix(d, point[:n], point[n:])


def lagrangian_by_transvections(d, n, steps):
    """Witness past the exhaustive frontier: M0 = {(p | 0)} moved by each transvection x -> x + c[x, v]v in turn.

    steps holds (c, v) pairs, v a row of 2n integers. A transvection keeps the
    symplectic form, so it maps a Lagrangian to a Lagrangian; the image is
    returned in canonical form.
    """
    rows = [[int(i == j) for j in range(2 * n)] for i in range(n)]
    for c, v in steps:
        rows = [[(x + c * _form_lift(row, v, n) * y) % d for x, y in zip(row, v)] for row in rows]
    return from_rows(rows, d=d, width=2 * n)


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
        terms = [(g, weyl_word_by_fold(d, n, sub.generators, [g[c] for c in sub.pivots])[0]) for g in k_sub.generators]
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


def dense_state_vector(state, terms=None) -> np.ndarray:
    """Oracle: the unit vector of a state, read off its dense projector (summed over terms, as dense_projector)."""
    return _unit_column(dense_projector(state.lagrangian, state.zeta, terms))


def dense_stabilizer_basis(m_sub) -> list:
    """Oracle: (zeta, vector) for every coset of M, each from its dense projector, sharing the Weyl matrices."""
    terms = weyl_representation(m_sub)
    return [(zeta, _unit_column(dense_projector(m_sub, zeta, terms))) for zeta in coset_representatives(m_sub)]


def z_fixed_by_every_element(d: int, n: int, points: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Oracle: whether k(zeta, z, x) = 0 for every Z-only element z, over (table, coset, x), one element at a time.

    points and keys are the full tables, stacked as stabilizer._block returns them, each point
    index read back into its (P | Q) coordinates, and x runs over Z_d^n in lexicographic order.
    k(zeta, m, x) = lambda(zeta, m) + 2 P_m.(x + Q_m) mod the order of tau.
    """
    order = tau_order(d)
    grid = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(-1, n)
    rows = np.stack(np.unravel_index(points, (d,) * (2 * n)), axis=-1).astype(np.int64)
    p, q = rows[..., :n], rows[..., n:]
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
