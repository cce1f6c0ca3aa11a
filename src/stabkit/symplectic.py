"""Linear and symplectic geometry over Z_d.

Phase-space vectors live in V = Z_d^{2n} with coordinates ordered
(p_1..p_n, q_1..q_n) and the standard symplectic form

    [u, v] = u_p . v_q - u_q . v_p   (mod d).

Subspaces are stored as generator matrices in reduced row echelon form over
Z_d. RREF is the unique canonical form, so structural equality of the
generator tuple is subspace equality, hashing is well defined, and every
enumeration below is a plain generator with a reproducible order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .combinatorics import _require_space, lagrangian_count, require_prime
from .errors import DEFAULT_ENUM_CAP, check_cap

Row = tuple[int, ...]


def _trusted(cls, *fields):
    """An instance of the frozen dataclass cls from fields the library built in
    canonical form; __post_init__ does not run, so it must never see outside input."""
    obj = object.__new__(cls)
    # Field by field, as the generated __init__ does: touching obj.__dict__ would
    # give every instance its own dict instead of the shared-key layout.
    for name, value in zip(cls.__dataclass_fields__, fields, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def _require_integers(rows: Iterable[Sequence], what: str) -> None:
    """The public constructors' one coordinate rule: every entry an int (a bool is not one, as in JSON)."""
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError(f"{what} must be integers")


@dataclass(frozen=True)
class PhaseVector:
    """An element of Z_d^{2n}, split as (p_1..p_n, q_1..q_n)."""

    d: int
    n: int
    coords: Row

    def __post_init__(self) -> None:
        _require_space(self.d, self.n)
        if len(self.coords) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} coordinates, got {len(self.coords)}")
        _require_integers([self.coords], "coordinates")
        object.__setattr__(self, "coords", tuple(c % self.d for c in self.coords))

    @property
    def p(self) -> Row:
        return self.coords[: self.n]

    @property
    def q(self) -> Row:
        return self.coords[self.n :]

    def _check_compatible(self, other: "PhaseVector") -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("phase vectors live in different spaces")

    def is_zero(self) -> bool:
        return not any(self.coords)


def _form_lift(u: Sequence[int], v: Sequence[int], n: int) -> int:
    # u_p.v_q - u_q.v_p on the coordinates as given, with no reduction.
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


def symplectic_form(u: PhaseVector, v: PhaseVector) -> int:
    """[u, v] = u_p.v_q - u_q.v_p reduced mod d."""
    u._check_compatible(v)
    return _form_lift(u.coords, v.coords, u.n) % u.d


# ---------------------------------------------------------------------------
# Exact row reduction


def _rref(rows: Iterable[Sequence[int]], d: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over Z_d. Returns (all rows, pivot columns); rows beyond len(pivots) are zero."""
    mat = [[c % d for c in row] for row in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, d)
        mat[r] = [(x * inv) % d for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % d for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of Z_d^width held by its canonical RREF generator matrix.

    ``width`` is 2n for phase-space subspaces; plain configuration spaces
    Z_d^m are supported too (the tests' subspace-counting oracle uses them).
    """

    d: int
    width: int
    generators: tuple[Row, ...]

    def __post_init__(self) -> None:
        require_prime(self.d)
        if self.width < 1:
            raise ValueError("ambient dimension must be positive")
        gens = tuple(tuple(row) for row in self.generators)
        object.__setattr__(self, "generators", gens)
        _require_integers(gens, "generator entries")
        # Canonical means RREF is a fixpoint: rows of width entries, one pivot each, returned unchanged.
        reduced, pivots = _rref(gens, self.d) if all(len(row) == self.width for row in gens) else ([], [])
        if len(pivots) != len(gens) or reduced != [list(row) for row in gens]:
            raise ValueError("generators are not in canonical reduced row echelon form")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        if self.width % 2:
            raise ValueError("ambient dimension is odd; not a phase space")
        return self.width // 2

    @property
    def pivots(self) -> Row:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.generators)

    def reduce_coords(self, coords: Sequence[int]) -> Row:
        """Canonical coset representative of coords modulo this subspace."""
        v = [c % self.d for c in coords]
        if len(v) != self.width:
            raise ValueError("coordinate length mismatch")
        for c, row in zip(self.pivots, self.generators):
            if v[c]:
                f = v[c]
                v = [(x - f * y) % self.d for x, y in zip(v, row)]
        return tuple(v)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "dim": self.dim,
            "generators": [list(row) for row in self.generators],
        }


def _form_row(coords: Sequence[int], n: int, d: int) -> Row:
    # Row a with a.x = [u, x]: coefficients (-u_q | u_p).
    return tuple((-coords[n + i]) % d for i in range(n)) + tuple(coords[:n])


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if (a.d, a.width) != (b.d, b.width):
        raise ValueError("subspaces live in different ambient spaces")


def is_isotropic(s: Subspace) -> bool:
    """Whether the symplectic form vanishes on s (pairwise generator check)."""
    n = s.n
    return all(_form_lift(g, h, n) % s.d == 0 for g, h in itertools.combinations(s.generators, 2))


def is_lagrangian(s: Subspace) -> bool:
    return s.dim == s.n and is_isotropic(s)


# ---------------------------------------------------------------------------
# Enumeration


def _fill_free(d: int, base: Row, free: Sequence[int]) -> Iterator[Row]:
    """base with every Z_d assignment to the free columns, in lexicographic order."""
    for vals in itertools.product(range(d), repeat=len(free)):
        row = list(base)
        for j, v in zip(free, vals):
            row[j] = v
        yield tuple(row)


def _rref_rows(d: int, m: int, pivots: Sequence[int]) -> list[list[Row]]:
    """Per pivot c, every RREF row leading at c: free entries right of c, off the other pivots."""
    return [
        list(_fill_free(d, tuple(int(j == c) for j in range(m)), [j for j in range(c + 1, m) if j not in pivots]))
        for c in pivots
    ]


def enumerate_lagrangians(d: int, n: int, *, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Subspace]:
    """Every Lagrangian subspace of Z_d^{2n} exactly once.

    A prefix-pruned isotropy filter over the n-dimensional RREF subspaces:
    rows are chosen one at a time, and a row that pairs non-trivially with an
    earlier one cuts off its whole subtree, since isotropy is a pairwise
    condition on generators. Rows are tried in the order the tests' subspace
    oracle (helpers.enumerate_subspaces) varies them, so the survivors come
    out in exactly its order. This stays independent of the extension
    recursion (helpers.extensions_through), so the two act as witnesses for
    each other. The cap guards the Lagrangian count prod_{j=1..n} (d^j + 1).
    """
    check_cap("Lagrangians", lagrangian_count(d, n), cap)
    return _iter_lagrangians(d, n)


def _iter_lagrangians(d: int, n: int) -> Iterator[Subspace]:
    m = 2 * n
    for pivots in itertools.combinations(range(m), n):
        choices = [[(row, _form_row(row, n, d)) for row in rows] for rows in _rref_rows(d, m, pivots)]
        yield from _isotropic_completions(d, m, choices, [])


def _isotropic_completions(d: int, m: int, choices: list, prefix: list) -> Iterator[Subspace]:
    if len(prefix) == len(choices):
        yield _trusted(Subspace, d, m, tuple(row for row, _ in prefix))
        return
    for row, form in choices[len(prefix)]:
        if all(sum(a * b for a, b in zip(form, prev)) % d == 0 for prev, _ in prefix):
            prefix.append((row, form))
            yield from _isotropic_completions(d, m, choices, prefix)
            prefix.pop()


def intersection_spectrum(m_sub: Subspace) -> dict[int, int]:
    """Empirical kappa: counts of Lagrangians N by dim(M ∩ N), k = 0..n, enumerated under DEFAULT_ENUM_CAP."""
    return intersection_spectrum_of(m_sub, enumerate_lagrangians(m_sub.d, m_sub.n))


def intersection_spectrum_of(m_sub: Subspace, lagrangians: Iterable[Subspace]) -> dict[int, int]:
    """intersection_spectrum over the Lagrangians given, in one pass: a caller that holds them scans them once.

    Each N is counted by dim(M ∩ N) = dim M + dim N - dim(M + N), a rank of
    their stacked generators; no intersection subspace is built.
    """
    if not is_lagrangian(m_sub):
        raise ValueError("intersection spectrum needs a Lagrangian reference")
    counts = dict.fromkeys(range(m_sub.n + 1), 0)
    for other in lagrangians:
        _check_same_ambient(m_sub, other)
        counts[m_sub.dim + other.dim - len(_rref(m_sub.generators + other.generators, m_sub.d)[1])] += 1
    return counts


def _coset_rows(m_sub: Subspace) -> Iterator[Row]:
    """The coordinates of coset_representatives, as plain rows in the same order."""
    pivots = m_sub.pivots
    return _fill_free(m_sub.d, (0,) * m_sub.width, [c for c in range(m_sub.width) if c not in pivots])


def coset_representatives(m_sub: Subspace) -> Iterator[PhaseVector]:
    """Canonical representatives of V/M: all vectors vanishing on M's pivots.

    Exactly d^n of them for Lagrangian M, in lexicographic order of the free
    coordinates; the class of 0 is represented by the zero vector.
    """
    n = m_sub.n
    return (_trusted(PhaseVector, m_sub.d, n, coords) for coords in _coset_rows(m_sub))


def canonical_coset_representative(m_sub: Subspace, v: PhaseVector) -> PhaseVector:
    if (v.d, 2 * v.n) != (m_sub.d, m_sub.width):
        raise ValueError("vector lives in a different space")
    return _trusted(PhaseVector, v.d, v.n, m_sub.reduce_coords(v.coords))
