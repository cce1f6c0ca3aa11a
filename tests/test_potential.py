"""Frame-potential engines: exact identities and numeric cross-checks."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import cached_vectors, pairwise_sum_tree, rebuilt, single_qubit_rays
from stabkit import (
    FramePotentialReport,
    combinatorics,
    enumerate_lagrangians,
    frame_potential_bruteforce,
    frame_potentials_bruteforce,
    frame_potential_combinatorial,
    frame_potential_fixed_state,
    frame_potentials_fixed_state,
    frame_potential_recursion,
    frame_potential_report,
    intersection_spectrum_of,
    stabilizer_count,
    state_vectors,
    welch_bound,
)
from stabkit.errors import _WORK_BYTES, NonPrimeModulusError, ResourceCapError
from stabkit.potential import _pairwise_tree, _state_stack, fraction_str


# ---------------------------------------------------------------------------
# exact engines


def test_recursion_base_examples():
    assert frame_potential_recursion(2, 1, 2) == Fraction(1, 3)
    assert frame_potential_recursion(2, 1, 3) == Fraction(1, 4)
    assert frame_potential_recursion(2, 1, 4) == Fraction(5, 24)
    assert frame_potential_recursion(3, 1, 3) == Fraction(1, 9)


def test_combinatorial_examples():
    assert frame_potential_combinatorial(2, 1, 3) == Fraction(1, 4)
    assert frame_potential_combinatorial(2, 2, 2) == welch_bound(4, 2) == Fraction(1, 10)
    assert frame_potential_combinatorial(3, 1, 3) == Fraction(1, 9)
    assert frame_potential_combinatorial(3, 1, 3) > welch_bound(3, 3) == Fraction(1, 10)


def test_exact_engines_agree_on_grid():
    for d in (2, 3, 5, 7):
        for n in range(1, 6):
            for t in range(1, 9):
                assert frame_potential_recursion(d, n, t) == frame_potential_combinatorial(d, n, t)


def test_combinatorial_engine_sums_the_enumerated_spectrum():
    # The engine's kappa-weighted sum, with kappa read off enumeration instead of its formula: each of the
    # spectrum[k] Lagrangians meeting M_0 in dimension k carries d^{n-k} states of overlap d^{k-n} with |M_0, 0>.
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        spectrum = intersection_spectrum_of(lagrangians[0], lagrangians)
        for t in range(1, 6):
            total = sum(spectrum[k] * d ** (n - k) * Fraction(d) ** ((k - n) * t) for k in range(n + 1))
            assert total / stabilizer_count(d, n) == frame_potential_combinatorial(d, n, t), (d, n, t)


def test_exact_engines_reject_bad_input():
    with pytest.raises(NonPrimeModulusError):
        frame_potential_recursion(4, 1, 2)
    with pytest.raises(ValueError):
        frame_potential_combinatorial(2, 0, 2)
    with pytest.raises(ValueError):
        frame_potential_recursion(2, 1, 0)
    # Only a positive int: 2.5 gave 0.2845... from the recursion and a RuntimeError from the sum,
    # 2.0 a TypeError, and True passed as 1.
    for engine in (frame_potential_recursion, frame_potential_combinatorial):
        for bad in (2.5, 2.0, True, Fraction(2)):
            with pytest.raises(ValueError, match=re.escape(f"t must be a positive int, got {bad!r}")):
                engine(2, 1, bad)
            with pytest.raises(ValueError, match=re.escape(f"n must be a positive int, got {bad!r}")):
                engine(2, bad, 2)


def test_exact_engines_refuse_a_space_as_the_state_count_does():
    # One (d, n) rule, combinatorics._require_space: the same error and message as every other layer, so an n < 1
    # reads "n must be positive".
    for d, n in [(4, 1), (2, 0), (2, -1), (2, True), (2, 2.0)]:
        with pytest.raises(ValueError) as expected:
            stabilizer_count(d, n)
        for engine in (frame_potential_recursion, frame_potential_combinatorial):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                engine(d, n, 2)


def test_welch_is_a_lower_bound_with_design_pattern():
    for d in (2, 3, 5):
        for n in range(1, 5):
            for t in range(1, 7):
                value = frame_potential_combinatorial(d, n, t)
                bound = welch_bound(d**n, t)
                assert value >= bound
                expected_equal = t <= 2 or (t == 3 and d == 2)
                assert (value == bound) == expected_equal


def test_recursion_factor_matches_welch_ratio_at_t2():
    # the exact identity behind the 2-design claim
    for d in (2, 3, 5):
        for n in range(1, 5):
            factor = Fraction(d**n + 1, d * (d ** (n + 1) + 1))
            assert factor == welch_bound(d ** (n + 1), 2) / welch_bound(d**n, 2)


# ---------------------------------------------------------------------------
# numeric engines


def test_pairwise_sum_matches_plain_sum():
    vals = [1.0 / (i + 1) for i in range(37)]
    assert float(_pairwise_tree(np.array(vals))) == pytest.approx(sum(vals), abs=1e-15)


def test_pairwise_sum_keeps_the_fixed_tree_bit_for_bit():
    rng = random.Random(7)
    for size in [*range(1, 71), 30_241]:
        vals = [rng.random() * 10.0 ** rng.randint(-12, 12) for _ in range(size)]
        assert float(_pairwise_tree(np.array(vals))) == pairwise_sum_tree(vals)


def test_bruteforce_single_qubit_against_handwritten_rays():
    # oracle: the six rays written out by hand, double sum evaluated directly
    rays = single_qubit_rays()
    for t in range(1, 5):
        oracle = sum(
            abs(np.vdot(a, b)) ** (2 * t) for a in rays for b in rays
        ) / 36.0
        assert oracle == pytest.approx((6 + 24 * 2.0**-t) / 36, abs=1e-12)
        value = frame_potential_bruteforce(2, 1, t)
        assert abs(value - oracle) <= 1e-9


def test_bruteforce_matches_exact():
    for d, n in [(2, 1), (3, 1), (2, 2)]:
        vectors = cached_vectors(d, n)
        for t in range(1, 7):
            exact = float(frame_potential_combinatorial(d, n, t))
            value = frame_potential_bruteforce(d, n, t, vectors=vectors)
            assert abs(value - exact) <= 1e-9


def test_fixed_state_matches_bruteforce_and_exact():
    for d, n in [(2, 1), (2, 2)]:
        vectors = cached_vectors(d, n)
        for t in range(1, 7):
            brute = frame_potential_bruteforce(d, n, t, vectors=vectors)
            fixed = frame_potential_fixed_state(d, n, t, vectors=vectors)
            assert abs(brute - fixed) <= 1e-9
    assert frame_potential_fixed_state(2, 1, 1) == pytest.approx(0.5, abs=1e-12)


def test_fixed_state_at_scale():
    for d, n in [(2, 3), (3, 2)]:
        vectors = cached_vectors(d, n)
        for t in range(1, 7):
            exact = float(frame_potential_combinatorial(d, n, t))
            fixed = frame_potential_fixed_state(d, n, t, vectors=vectors)
            assert abs(fixed - exact) <= 1e-9


def test_numeric_engines_match_the_per_row_tree_oracle_bit_for_bit():
    # Oracle: each row's own product and tree, then the tree over row totals.
    # At (3, 2) the 360 rows run in blocks of 182, so the last block is partial.
    for d, n in [(2, 2), (3, 2), (5, 1)]:
        stack = np.array(cached_vectors(d, n))
        count = len(stack)
        for t in range(1, 5):
            rows = []
            for i in range(count):
                amps = stack @ np.conj(stack[i])
                rows.append(pairwise_sum_tree(((amps.real**2 + amps.imag**2) ** t).tolist()))
            assert frame_potential_bruteforce(d, n, t, vectors=list(stack)) == pairwise_sum_tree(rows) / count**2
            assert frame_potential_fixed_state(d, n, t, vectors=list(stack)) == rows[0] / count


def test_bruteforce_sweep_over_t_is_bit_identical_to_one_t_calls():
    # At 64 moments the tree's chunk is 256 values per t, so the 360 row totals of (3, 2) sum in two chunks.
    for d, n, t_max in [(2, 3, 4), (3, 2, 6), (5, 1, 6), (3, 2, 64)]:
        vectors = cached_vectors(d, n)
        ts = range(1, t_max + 1)
        sweep = frame_potentials_bruteforce(d, n, ts, vectors=vectors)
        single = [frame_potential_bruteforce(d, n, t, vectors=vectors) for t in ts]
        assert [x.hex() for x in sweep] == [x.hex() for x in single]


def test_fixed_state_sweep_streams_the_bits_of_the_whole_stack():
    # The oracle reads the reference overlaps off the whole stack; the sweep keeps them block by block.
    # (3, 3) and (5, 2) realize in several blocks, each ending in a shorter run. At 200 moments the tree's chunk
    # is 64 values per t, so the 360 reference overlaps of (3, 2) sum in six chunks, the last a short one.
    for d, n, t_max in [(2, 1, 5), (2, 3, 5), (3, 2, 5), (3, 3, 4), (5, 2, 4), (7, 1, 5), (13, 1, 5), (3, 2, 200)]:
        stack = state_vectors(d, n)
        amps = stack @ np.conj(stack[0])
        ts = range(1, t_max + 1)
        expected = [float(_pairwise_tree((amps.real**2 + amps.imag**2) ** t)) / len(stack) for t in ts]
        sweep = frame_potentials_fixed_state(d, n, ts)
        assert [x.hex() for x in sweep] == [x.hex() for x in expected]
        assert sweep == frame_potentials_fixed_state(d, n, ts, vectors=stack)
        assert sweep == [frame_potential_fixed_state(d, n, t) for t in ts]


def traced_peak(call):
    """The result of call() and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_state_engine_never_holds_the_stack(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the fixed-state engine built the (S, d^n) stack")

    for target in ("stabkit.stabilizer.state_vectors", "stabkit.potential.state_vectors"):
        monkeypatch.setattr(target, refused)
    frame_potential_fixed_state(2, 4, 2)  # first-call imports and caches stay out of the measurement
    value, peak = traced_peak(lambda: frame_potential_fixed_state(2, 4, 2))
    assert value == pytest.approx(float(frame_potential_combinatorial(2, 4, 2)), abs=1e-12)
    # The (36720, 16) complex128 stack alone would be 9.4 MB, and the S reference overlaps 0.29 MB
    # each as |amp|^2, their power and the tree's first level. What is left is one realized block within
    # the budget, plus the chunked tree's chunk and the enumerator's own state.
    assert peak < _WORK_BYTES + 150_000


def test_bruteforce_engine_works_within_the_budget():
    # At (3, 2) the 360 x 360 overlaps were one complex block and its squares: a 2.4 MB peak.
    stack = state_vectors(3, 2)
    frame_potentials_bruteforce(3, 2, [1], vectors=stack)
    values, peak = traced_peak(lambda: frame_potentials_bruteforce(3, 2, range(1, 5), vectors=stack))
    for t, value in zip(range(1, 5), values):
        assert abs(value - float(frame_potential_combinatorial(3, 2, t))) <= 1e-9
    assert peak < _WORK_BYTES


def test_fixed_state_engine_works_within_the_budget_at_many_moments():
    # One realized block and one tree chunk: the chunk shrinks as the moments grow, and the powers are taken a
    # chunk at a time.
    ts = range(1, 201)
    frame_potentials_fixed_state(3, 3, [1])
    values, peak = traced_peak(lambda: frame_potentials_fixed_state(3, 3, ts))
    assert peak < 2 * _WORK_BYTES
    # The 30240 overlaps sum in 473 chunks of 64, whose sums meet in six subtrees: the bits of the whole tree.
    stack = state_vectors(3, 3)
    amps = stack @ np.conj(stack[0])
    sq = amps.real**2 + amps.imag**2
    assert [x.hex() for x in values] == [(float(_pairwise_tree(sq**t)) / len(stack)).hex() for t in ts]


def test_bruteforce_engine_works_within_the_budget_at_many_moments():
    # One row block, whose (t, row) totals count in its budget, and one tree chunk.
    stack = state_vectors(3, 2)
    ts = range(1, 201)
    frame_potentials_bruteforce(3, 2, [1], vectors=stack)
    values, peak = traced_peak(lambda: frame_potentials_bruteforce(3, 2, ts, vectors=stack))
    for t, value in zip(ts, values, strict=True):
        assert abs(value - float(frame_potential_combinatorial(3, 2, t))) <= 1e-9
    assert peak < 2 * _WORK_BYTES


def test_numeric_engines_reject_a_partial_vector_list():
    vecs = cached_vectors(2, 1)
    assert frame_potential_fixed_state(2, 1, 2, vectors=vecs) == pytest.approx(1 / 3)
    for wrong in (vecs[:3], vecs + vecs[:3]):
        with pytest.raises(ValueError, match="6 state vectors"):
            frame_potential_fixed_state(2, 1, 2, vectors=wrong)
        with pytest.raises(ValueError, match="6 state vectors"):
            frame_potential_bruteforce(2, 1, 2, vectors=wrong)


def test_numeric_engines_reject_vectors_of_the_wrong_width():
    # Six rows, as many as the (2, 1) states, but not of length 2: [81.0] and [625.0] before.
    for engine, width in ((frame_potentials_bruteforce, 3), (frame_potentials_fixed_state, 5)):
        with pytest.raises(ValueError, match=rf"6 state vectors, of length 2: got shape \(6, {width}\)"):
            engine(2, 1, [2], vectors=np.ones((6, width)))
        with pytest.raises(ValueError, match=r"got shape \(6,\)"):
            engine(2, 1, [2], vectors=np.ones(6))


def test_numeric_engines_reject_an_empty_t_list_before_realizing(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("realized states for an empty t list")

    monkeypatch.setattr("stabkit.stabilizer._state_blocks", refused)
    for engine in (frame_potentials_bruteforce, frame_potentials_fixed_state):
        for ts in ([], range(1, 1)):
            with pytest.raises(ValueError, match="at least one t"):
                engine(2, 1, ts)


def test_numeric_engines_read_one_stack_in_place():
    # An array passes through uncopied, so one stack serves every t, with the bits a list gives.
    vecs = cached_vectors(2, 2)
    stack = np.array(vecs)
    assert _state_stack(stack, len(stack), 2, 2) is stack
    ts = range(1, 5)
    # Caps of 0 would refuse any realization: given vectors are only checked for their count.
    given = frame_potentials_bruteforce(2, 2, ts, state_cap=0, matrix_cap=0, vectors=stack)
    assert given == frame_potentials_bruteforce(2, 2, ts, vectors=vecs)
    for t in ts:
        assert frame_potential_fixed_state(2, 2, t, vectors=stack) == frame_potential_fixed_state(2, 2, t, vectors=vecs)


def test_numeric_engine_caps():
    with pytest.raises(ResourceCapError):
        frame_potential_bruteforce(2, 2, 2, pair_cap=100)
    with pytest.raises(ResourceCapError, match="realized states: need 60, cap 10"):
        frame_potential_bruteforce(2, 2, 2, state_cap=10)
    with pytest.raises(ResourceCapError):
        frame_potential_fixed_state(2, 2, 2, state_cap=10)
    with pytest.raises(ResourceCapError, match="matrix dimension"):
        frame_potentials_fixed_state(2, 2, [1, 2], matrix_cap=3)


# ---------------------------------------------------------------------------
# reports and verdicts


def test_design_verdict_flags():
    for d, n, flags in [(2, 3, [True, True, True, False]), (3, 2, [True, True, False]), (5, 1, [True, True])]:
        assert [frame_potential_report(d, n, t).is_t_design for t in range(1, len(flags) + 1)] == flags


def test_report_fields_and_roundtrip():
    report = frame_potential_report(3, 1, 3, bruteforce=0.1111111)
    assert report.dimension == 3
    assert report.value_recursion == report.value_combinatorial == Fraction(1, 9)
    assert report.welch == Fraction(1, 10)
    assert not report.is_t_design
    obj = report.to_json_dict()
    assert obj["recursion"] == "1/9" and obj["welch"] == "1/10"
    assert rebuilt(obj) == report


def test_a_report_tests_d_once_per_check(monkeypatch):
    # kappa leaves the test of a valid call's d to gaussian_binomial, so it tests d once: n + 4 times per report,
    # from _validate twice, kappa n + 1 times and stabilizer_count once.
    calls = []
    is_prime = combinatorics.is_prime
    monkeypatch.setattr(combinatorics, "is_prime", lambda d: calls.append(d) or is_prime(d))
    for n, t in itertools.product(range(1, 7), range(1, 7)):
        frame_potential_report(2, n, t)
    assert len(calls) == 270


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        FramePotentialReport(
            d=2,
            n=1,
            t=2,
            value_recursion=Fraction(1, 3),
            value_combinatorial=Fraction(1, 4),
            welch=Fraction(1, 3),
            is_t_design=True,
        )


def test_fraction_serialization():
    assert fraction_str(Fraction(5, 24)) == "5/24"
