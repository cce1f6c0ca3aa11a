"""The design definition by moments: stabilizer states against states that are not stabilizer states.

A set of unit vectors is a complex projective t-design when, for every unit
psi, the mean of |<s|psi>|^{2t} over its states s equals the Haar value
1/binom(D+t-1, t), which is welch_bound(D, t). These tests check that
definition directly on random psi, independently of any frame potential:
qubit stabilizer states are 3-designs and not 4-designs, and qudit ones are
2-designs and not 3-designs. One order up, at d = 2, the moment is affine in
the Pauli fourth moment of psi (Zhu, Kueng, Grassl and Gross,
arXiv:1609.08172), with coefficients fixed by two exact anchors.
"""

from fractions import Fraction

import numpy as np
import pytest

from stabkit import frame_potential_combinatorial, state_vectors, welch_bound

from helpers import zx_dense

SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def _seeded_states(dim: int) -> list[np.ndarray]:
    """8 seeded random unit vectors in C^dim."""
    rng = np.random.default_rng(1510)
    states = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(8)]
    return [psi / np.linalg.norm(psi) for psi in states]


def _relative_moment_deviations(d: int, n: int, t: int) -> list[float]:
    """|mean_s |<s|psi>|^{2t} - W_t| / W_t for 8 seeded random unit psi in C^{d^n}."""
    vectors, dim = state_vectors(d, n), d**n
    welch = float(welch_bound(dim, t))
    moments = [np.mean(np.abs(vectors @ np.conj(psi)) ** (2 * t)) for psi in _seeded_states(dim)]
    return [abs(moment - welch) / welch for moment in moments]


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


def _affine_coefficients(n: int) -> tuple[Fraction, Fraction]:
    """(a, b) with E_s |<s|psi>|^8 = a + b x(psi) over the qubit stabilizer states s, from two anchors.

    x(psi) = D^{-2} sum_P |<psi|P|psi>|^4 over the D^2 Pauli operators. A
    stabilizer psi has x = 1/D, where the moment is F_4. The Haar mean of x is
    D^{-2} (1 + (D^2 - 1) 3/((D+1)(D+3))), since E <psi|P|psi>^4 =
    3/((D+1)(D+3)) for each traceless P, and there the mean moment is W_4.
    """
    dim = 2**n
    at_stabilizer = frame_potential_combinatorial(2, n, 4)
    haar_x = Fraction(1, dim**2) * (1 + (dim**2 - 1) * Fraction(3, (dim + 1) * (dim + 3)))
    slope = (welch_bound(dim, 4) - at_stabilizer) / (haar_x - Fraction(1, dim))
    return at_stabilizer - slope / dim, slope


@pytest.mark.parametrize(
    "n, expected", [(2, (Fraction(1, 40), Fraction(1, 40))), (3, (Fraction(1, 360), Fraction(1, 180)))]
)
def test_qubit_fourth_moment_is_affine_in_the_pauli_fourth_moment(n, expected):
    a, b = _affine_coefficients(n)
    assert (a, b) == expected
    vectors, paulis, dim = state_vectors(2, n), zx_dense(2, n), 2**n
    for psi in _seeded_states(dim):
        x = np.sum(np.abs(np.conj(psi) @ paulis @ psi) ** 4) / dim**2
        moment = np.mean(np.abs(vectors @ np.conj(psi)) ** 8)
        assert abs(moment - (float(a) + float(b) * x)) <= 1e-12 * moment
