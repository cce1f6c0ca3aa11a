"""Shared fixtures-by-function and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from stabkit import enumerate_subspaces, is_isotropic, realized_states


@lru_cache(maxsize=None)
def cached_states(d: int, n: int):
    """Realized (state, vector) pairs, shared across test modules."""
    return tuple(realized_states(d, n))


def cached_vectors(d: int, n: int) -> list[np.ndarray]:
    return [vec for _, vec in cached_states(d, n)]


def lagrangians_by_filter(d: int, n: int) -> list:
    """Oracle: every n-dim subspace of Z_d^{2n} kept when isotropic, in enumeration order."""
    return [s for s in enumerate_subspaces(d, 2 * n, n) if is_isotropic(s)]


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
