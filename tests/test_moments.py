"""The design definition by moments: stabilizer states against states that are not stabilizer states.

A set of unit vectors is a complex projective t-design when, for every unit
psi, the mean of |<s|psi>|^{2t} over its states s equals the Haar value
1/binom(D+t-1, t), which is welch_bound(D, t). These tests check that
definition directly on random psi, independently of any frame potential:
qubit stabilizer states are 3-designs and not 4-designs, and qudit ones are
2-designs and not 3-designs.
"""

import numpy as np
import pytest

from stabkit import state_vectors, welch_bound

SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def _relative_moment_deviations(d: int, n: int, t: int) -> list[float]:
    """|mean_s |<s|psi>|^{2t} - W_t| / W_t for 8 seeded random unit psi in C^{d^n}."""
    vectors, dim = state_vectors(d, n), d**n
    welch = float(welch_bound(dim, t))
    rng = np.random.default_rng(1510)
    deviations = []
    for _ in range(8):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        moment = np.mean(np.abs(vectors @ np.conj(psi)) ** (2 * t))
        deviations.append(abs(moment - welch) / welch)
    return deviations


@pytest.mark.parametrize("d, n", SIZES)
def test_moments_match_haar_up_to_the_design_order(d, n):
    # Qubit stabilizer states are a 3-design, qudit ones a 2-design: every psi sees the Haar moments.
    for t in range(1, (3 if d == 2 else 2) + 1):
        assert max(_relative_moment_deviations(d, n, t)) <= 1e-12, (d, n, t)


@pytest.mark.parametrize("d, n", SIZES)
def test_moments_miss_haar_one_order_above(d, n):
    # One order up the moment depends on psi; its mean over Haar psi is still W_t, so a single psi may land
    # near it (8.8e-5 relative at (2, 3), t = 4), but some psi among the eight misses by over 1e-2.
    t = 4 if d == 2 else 3
    assert max(_relative_moment_deviations(d, n, t)) > 1e-3
