"""Exact counting formulas: binomials, Gaussian binomials, Lagrangian and
stabilizer-state counts, Welch bounds.

Everything is computed on Python ints and ``fractions.Fraction``, so identity
tests (e.g. frame potential == Welch bound) are decided by exact equality,
never to a tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonPrimeModulusError


def is_prime(n: int) -> bool:
    """Trial division; d is small by construction everywhere in this package. Only an int (not a bool) is prime."""
    if type(n) is not int or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(d: int) -> None:
    if not is_prime(d):
        raise NonPrimeModulusError(f"d must be prime, got {d!r}")


def _require_space(d: int, n: int) -> None:
    """The phase space Z_d^{2n} of the Lagrangian counts: d prime and n a positive int (a bool is not one)."""
    require_prime(d)
    if type(n) is not int:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")


def binomial(n: int, k: int) -> int:
    """C(n, k) of non-negative ints (a bool or a float is not one); zero when k > n."""
    if type(n) is not int or type(k) is not int or n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be non-negative ints, got {n!r}, {k!r}")
    return math.comb(n, k)


def gaussian_binomial(n: int, k: int, d: int) -> int:
    """Number of k-dimensional subspaces of Z_d^n.

    Computed as the interleaved product prod_{j=1..k} (d^(n-k+j)-1)/(d^j-1).
    Every partial product is itself a Gaussian binomial, so each division is
    exact on integers.
    """
    require_prime(d)
    if type(n) is not int or type(k) is not int or n < 0 or k < 0:
        raise ValueError(f"gaussian_binomial arguments must be non-negative ints, got {n!r}, {k!r}")
    if k > n:
        return 0
    result = 1
    for j in range(1, k + 1):
        result, rem = divmod(result * (d ** (n - k + j) - 1), d**j - 1)
        if rem:
            raise RuntimeError("partial Gaussian binomial product must stay integral")
    return result


def lagrangian_count(d: int, n: int) -> int:
    """Number of Lagrangian subspaces of Z_d^{2n}: prod_{j=1..n} (d^j + 1)."""
    _require_space(d, n)
    out = 1
    for j in range(1, n + 1):
        out *= d**j + 1
    return out


def stabilizer_count(d: int, n: int) -> int:
    """S(d, n) = d^n * prod_{j=1..n} (d^j + 1)."""
    return d**n * lagrangian_count(d, n)


def transversal_count(d: int, n: int) -> int:
    """Number of Lagrangians transverse to a fixed one: d^{n(n+1)/2}."""
    _require_space(d, n)
    return d ** (n * (n + 1) // 2)


def kappa(d: int, n: int, k: int) -> int:
    """Number of Lagrangians meeting a fixed Lagrangian in dimension k.

    kappa(d, n, k) = binom(n,k)_d * d^{(n-k)(n-k+1)/2}.
    """
    _require_space(d, n)
    if type(k) is not int or not 0 <= k <= n:
        raise ValueError(f"need an int 0 <= k <= n, got k={k!r}, n={n}")
    m = n - k
    return gaussian_binomial(n, k, d) * d ** (m * (m + 1) // 2)


def welch_bound(dimension: int, t: int) -> Fraction:
    """Universal frame-potential lower bound 1 / C(D+t-1, t), for positive ints D and t."""
    if type(dimension) is not int or type(t) is not int or dimension < 1 or t < 1:
        raise ValueError(f"dimension and t must be positive ints, got {dimension!r}, {t!r}")
    return Fraction(1, math.comb(dimension + t - 1, t))
