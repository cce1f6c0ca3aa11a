"""Counting formulas against independent oracles and against each other."""

import itertools
import re
from fractions import Fraction

import pytest

from helpers import count_subspaces_bruteforce, gaussian_pascal_check
from stabkit import (
    PhaseVector,
    enumerate_lagrangians,
    frame_potential_combinatorial,
    gaussian_binomial,
    is_prime,
    kappa,
    lagrangian_count,
    stabilizer_count,
    state_vectors,
    transversal_count,
    welch_bound,
)
from stabkit.combinatorics import require_prime
from stabkit.errors import NonPrimeModulusError


def test_gaussian_binomial_examples():
    assert gaussian_binomial(1, 0, 2) == 1
    # enumeration oracle: 1-dim subspaces counted as deduplicated spans
    assert count_subspaces_bruteforce(2, 2, 1) == 3
    assert gaussian_binomial(2, 1, 2) == 3
    assert count_subspaces_bruteforce(2, 3, 1) == 7
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(1, 2, 3) == 0


def test_gaussian_binomial_against_bruteforce_spans():
    for d, m in [(2, 2), (2, 3), (3, 2)]:
        for k in range(m + 1):
            assert gaussian_binomial(m, k, d) == count_subspaces_bruteforce(d, m, k)


def test_gaussian_symmetry_and_pascal():
    for d in (2, 3, 5):
        for n in range(1, 6):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, d) == gaussian_binomial(n, n - k, d)
                assert gaussian_pascal_check(n, k, d)


def test_gaussian_pascal_trivial_case():
    assert gaussian_pascal_check(1, 1, 3)
    assert gaussian_pascal_check(2, 1, 2)
    assert gaussian_pascal_check(5, 2, 3)


def test_gaussian_rejects_nonprime():
    with pytest.raises(NonPrimeModulusError):
        gaussian_binomial(2, 1, 4)
    with pytest.raises(NonPrimeModulusError):
        gaussian_binomial(2, 1, 1)


def test_stabilizer_count():
    assert stabilizer_count(2, 1) == 6
    assert stabilizer_count(2, 2) == 60
    assert stabilizer_count(3, 2) == 360
    with pytest.raises(NonPrimeModulusError):
        stabilizer_count(6, 1)


def test_lagrangian_count():
    assert lagrangian_count(2, 1) == 3
    assert lagrangian_count(2, 2) == 15
    assert lagrangian_count(2, 3) == 135
    assert lagrangian_count(3, 2) == 40
    for d in (2, 3, 5):
        for n in range(1, 5):
            assert stabilizer_count(d, n) == d**n * lagrangian_count(d, n)


def test_transversal_count():
    assert transversal_count(2, 1) == 2
    assert transversal_count(2, 2) == 8
    assert transversal_count(3, 2) == 27


def test_kappa_examples():
    assert kappa(2, 1, 1) == 1
    assert kappa(2, 2, 1) == 6
    assert kappa(2, 2, 0) == 8
    assert kappa(2, 2, 0) == transversal_count(2, 2)
    with pytest.raises(ValueError):
        kappa(2, 2, 3)
    with pytest.raises(ValueError):
        kappa(2, 2, -1)


def test_count_functions_validate_alike():
    counts = [lagrangian_count, transversal_count, lambda d, n: kappa(d, n, 0)]
    for count in counts:
        for d in (4, 6, 1, 2.0):
            with pytest.raises(NonPrimeModulusError):
                count(d, 2)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                count(2, n)


def test_the_space_rule_refuses_a_bool_or_float_n():
    # True enumerated 3 width-2 subspaces and made a phase vector; 2.0 raised TypeError from the counts and the
    # realization.
    calls = [
        lambda n: list(enumerate_lagrangians(2, n)),
        lambda n: lagrangian_count(2, n),
        lambda n: stabilizer_count(2, n),
        lambda n: state_vectors(2, n),
        lambda n: PhaseVector(2, n, (0, 0)),
    ]
    for call in calls:
        for bad in (True, 2.0, Fraction(2)):
            with pytest.raises(ValueError, match=re.escape(f"n must be a positive int, got {bad!r}")):
                call(bad)


def test_the_exact_counts_refuse_a_bool_or_float():
    # kappa(2, 2, True) gave 6, welch_bound(True, 1) 1, welch_bound(8, True) 1/8 and gaussian_binomial(3, True, 2) 7;
    # kappa(2, 2, 1.0) and welch_bound(8.0, 2) raised TypeError.
    calls = [
        lambda x: kappa(2, 2, x),
        lambda x: welch_bound(x, 1),
        lambda x: welch_bound(8, x),
        lambda x: gaussian_binomial(3, x, 2),
        lambda x: gaussian_binomial(x, 1, 2),
    ]
    for call in calls:
        for bad in (True, False, 1.0, Fraction(1)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                call(bad)
    assert kappa(2, 2, 1) == 6 and welch_bound(8, 2) == Fraction(1, 36)


def test_only_an_int_is_prime():
    assert is_prime(2) and is_prime(3) and not is_prime(4)
    for d in (3.5, 2.0, 3.0, True, "3", None, Fraction(3)):
        assert not is_prime(d)
        with pytest.raises(NonPrimeModulusError, match=f"got {re.escape(repr(d))}$"):
            require_prime(d)
    # So a float d never reaches the exact engines.
    with pytest.raises(NonPrimeModulusError):
        frame_potential_combinatorial(2.0, 2, 3)
    with pytest.raises(NonPrimeModulusError):
        lagrangian_count(3.5, 1)
    with pytest.raises(NonPrimeModulusError):
        PhaseVector(3.5, 1, (1, 2))


def test_is_prime_agrees_with_trial_division_below_10_5():
    primes = []  # trial division by the primes found so far, up to the square root
    for n in range(10**5):
        prime = n >= 2 and all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes))
        primes += [n] * prime
        assert is_prime(n) == prime, n


def test_is_prime_refuses_carmichael_numbers_and_strong_pseudoprimes():
    # 2047 is a strong pseudoprime to base 2, 3215031751 to bases 2, 3, 5 and 7, and 3825123056546413051 to the
    # first nine primes; the first three are Carmichael numbers.
    for n in (561, 1105, 41041, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)


def test_is_prime_decides_nothing_past_its_proven_bound():
    # From 3,317,044,064,679,887,385,961,981 on, the first 13 prime bases are not proven to decide; a small factor
    # still does.
    bound = 3_317_044_064_679_887_385_961_981
    for n in (bound, 2**89 - 1):
        with pytest.raises(ValueError, match="proven only below 3317044064679887385961981"):
            is_prime(n)
    assert not is_prime(bound + 1) and not is_prime(41 * bound)


def test_kappa_sums_to_lagrangian_count():
    for d in (2, 3, 5):
        for n in range(1, 5):
            assert sum(kappa(d, n, k) for k in range(n + 1)) == lagrangian_count(d, n)


def test_welch_bound():
    assert welch_bound(2, 3) == Fraction(1, 4)
    assert welch_bound(2, 4) == Fraction(1, 5)
    for dim in (2, 3, 4, 9):
        assert welch_bound(dim, 1) == Fraction(1, dim)
    with pytest.raises(ValueError):
        welch_bound(0, 1)


def test_welch_bound_decreases_in_t():
    for dim in (2, 3, 4, 8, 9):
        values = [welch_bound(dim, t) for t in range(1, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v.denominator > 0 for v in values)
