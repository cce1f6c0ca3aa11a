"""Weyl operators: matrix conventions, closed-form words, group laws."""

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from stabkit import (
    PhaseVector,
    Subspace,
    enumerate_lagrangians,
    enumerate_subspaces,
    verify_commutation,
    verify_composition,
    verify_relations,
    weyl,
    zx_matrices,
)
from stabkit.errors import ResourceCapError
from stabkit.weyl import _omega_power, _tau_powers, _word, _zx_matrix, tau_order

from helpers import weyl_word_by_fold

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pv(d, n, *coords):
    return PhaseVector(d, n, tuple(coords))


def all_points(d, n):
    return [PhaseVector(d, n, c) for c in itertools.product(range(d), repeat=2 * n)]


def word(sub, coeffs):
    """(e, (P | Q)) of w_B at coefficients c, prod_i w(u_i)^{c_i}, B the generators of sub: weyl._word."""
    return _word(sub.d, sub.n, sub.generators, coeffs)


def word_matrix(d, n, w):
    e, point = w
    return _tau_powers(d)[e] * _zx_matrix(d, point[:n], point[n:])


def test_tau_phase_values():
    # Quarter turns are exact, and their zero parts are +0.0, never -0.0.
    quarter = _tau_powers(2)
    assert quarter.tolist() == [1, 1j, -1, -1j]
    parts = np.array([quarter.real, quarter.imag])
    assert not np.signbit(parts[parts == 0]).any()
    assert abs(_tau_powers(3)[1] ** 3 - 1) < 1e-12  # tau^d = 1 for odd d
    assert tau_order(2) == 4 and tau_order(3) == 3


def test_shift_boost_pauli():
    # The shift x(q) and the boost z(p) in the zx_matrices stack, at point index sum_i v_i 2^{2n-1-i}.
    eye, x, z, zx = zx_matrices(2, 1)
    assert np.allclose(eye, np.eye(2)) and np.allclose(x, X) and np.allclose(z, Z) and np.allclose(zx, Z @ X)
    stack = zx_matrices(2, 2)
    assert np.allclose(stack[0], np.eye(4))
    assert np.allclose(stack[0b0010], np.kron(X, np.eye(2)))  # x((1, 0))
    assert np.allclose(stack[0b0100], np.kron(np.eye(2), Z))  # z((0, 1))


def test_weyl_examples():
    assert np.allclose(weyl(pv(2, 1, 1, 1)), Y)
    assert np.allclose(weyl(pv(2, 1, 0, 0)), np.eye(2))
    assert np.allclose(weyl(pv(2, 2, 1, 0, 0, 1)), np.kron(Z, X))


def test_weyl_trace_identity():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        dim = d**n
        for v in all_points(d, n):
            tr = np.trace(weyl(v))
            expected = dim if v.is_zero() else 0.0
            assert abs(tr - expected) <= 1e-12


def test_weyl_unitarity():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        dim = d**n
        for v in all_points(d, n):
            w = weyl(v)
            assert np.max(np.abs(w @ w.conj().T - np.eye(dim))) <= 1e-12


def test_composition_commutation_examples():
    assert verify_composition(pv(2, 1, 1, 0), pv(2, 1, 0, 1))
    assert verify_commutation(pv(2, 1, 1, 0), pv(2, 1, 0, 1))
    u = pv(3, 1, 1, 2)
    assert verify_composition(u, u) and verify_commutation(u, u)


def test_composition_commutation_exhaustive():
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        points = all_points(d, n)
        for u in points:
            for v in points:
                assert verify_composition(u, v)
                assert verify_commutation(u, v)


def test_all_pairs_relations_match_the_per_pair_witness():
    # One stack of d^{2n} matrices serves every pair; the trace deviation is bit-identical.
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        points = all_points(d, n)
        zx = zx_matrices(d, n)
        assert len(zx) == len(points) == d ** (2 * n)
        for v, mat in zip(points, zx):
            assert np.array_equal(_tau_powers(d)[-sum(a * b for a, b in zip(v.p, v.q)) % tau_order(d)] * mat, weyl(v))
        trace_dev = max(abs(np.trace(weyl(v)) - (d**n if v.is_zero() else 0.0)) for v in points)
        assert verify_relations(d, n, zx) == (
            all(verify_composition(u, v) for u in points for v in points),
            all(verify_commutation(u, v) for u in points for v in points),
            trace_dev,
        )
        assert verify_relations(d, n, zx)[:2] == (True, True)


def test_verify_relations_works_within_the_budget(monkeypatch):
    # Every u against all d^{2n} points at once held a (d^{2n}, d^n, d^n) product and its temporaries, beside
    # (d^{2n}, d^{2n}) phase tables: 594 KB at (2, 3) and 792 KB at (3, 2), 50 MB at (5, 2). The Weyl matrices
    # are built first, so the measurement holds the check's work only. Blocks of one point and of every point
    # give the same verdicts and the same trace deviation, bit for bit.
    weyl_module = importlib.import_module("stabkit.weyl")
    for d, n in [(2, 3), (3, 2)]:
        zx = zx_matrices(d, n)
        tracemalloc.start()
        try:
            result = verify_relations(d, n, zx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[:2] == (True, True)
        assert peak < weyl_module._WORK_BYTES, (d, n, peak)
        for budget in (1, 2**40):
            monkeypatch.setattr(weyl_module, "_WORK_BYTES", budget)
            assert verify_relations(d, n, zx) == result
        monkeypatch.undo()


def test_a_wrong_omega_fails_commutation_in_both_paths(monkeypatch):
    # Conjugating omega changes nothing at d = 2, so the check runs at d = 3.
    # The package's `weyl` attribute is the function, so the module comes from importlib.
    real = _omega_power
    monkeypatch.setattr(importlib.import_module("stabkit.weyl"), "_omega_power", lambda d, k: real(d, k).conjugate())
    points = all_points(3, 1)
    comp_ok, comm_ok, _ = verify_relations(3, 1, zx_matrices(3, 1))
    assert comm_ok is False and not all(verify_commutation(u, v) for u in points for v in points)
    assert comp_ok is True and all(verify_composition(u, v) for u in points for v in points)


def test_symbolic_product_matches_matrix_product():
    # The integer product rule of the fold oracle, tau^e zx(P | Q), against the dense product w(u) w(v).
    for d, n in [(2, 1), (3, 1)]:
        points = all_points(d, n)
        for u in points:
            for v in points:
                product = weyl_word_by_fold(d, n, [u.coords, v.coords], (1, 1))
                assert np.max(np.abs(word_matrix(d, n, product) - weyl(u) @ weyl(v))) <= 1e-12


def test_weyl_basis_identity_and_tensor_example():
    m_sub = next(iter(enumerate_lagrangians(2, 2)))
    assert np.allclose(word_matrix(2, 2, word(m_sub, (0, 0))), np.eye(4))
    q_plane = Subspace(2, 4, ((0, 0, 1, 0), (0, 0, 0, 1)))
    assert np.allclose(word_matrix(2, 2, word(q_plane, (1, 1))), np.kron(X, X))


def test_weyl_basis_equals_weyl_for_odd_d():
    for m_sub in list(enumerate_lagrangians(3, 1)) + [list(enumerate_lagrangians(3, 2))[5]]:
        for coeffs in itertools.product(range(3), repeat=m_sub.dim):
            w = word(m_sub, coeffs)
            assert np.max(np.abs(word_matrix(3, m_sub.n, w) - weyl(PhaseVector(3, m_sub.n, w[1])))) <= 1e-12


def test_weyl_basis_group_law():
    # true representation on every Lagrangian, also at even d
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for m_sub in enumerate_lagrangians(d, n):
            coeff_space = list(itertools.product(range(d), repeat=n))
            words = {c: word(m_sub, c) for c in coeff_space}
            for a in coeff_space:
                for b in coeff_space:
                    total = tuple((x + y) % d for x, y in zip(a, b))
                    # Exact: w_B(a) w_B(b), one word over the basis twice, is w_B(a + b).
                    assert _word(d, n, m_sub.generators * 2, a + b) == words[total]
            mats = {c: word_matrix(d, n, w) for c, w in words.items()}
            for a in coeff_space:
                for b in coeff_space:
                    total = tuple((x + y) % d for x, y in zip(a, b))
                    assert np.max(np.abs(mats[a] @ mats[b] - mats[total])) <= 1e-12


def test_basis_weyl_operator_matches_fold():
    # The closed-form word against the product rule folded factor by factor:
    # every Lagrangian basis, and the RREF bases of all 1- and 2-dimensional
    # subspaces, isotropic or not; coefficients run over -d..d-1.
    bases = [s for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)] for s in enumerate_lagrangians(d, n)]
    bases += [s for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)] for k in (1, 2) for s in enumerate_subspaces(d, 2 * n, k)]
    for s in bases:
        for coeffs in itertools.product(range(-s.d, s.d), repeat=s.dim):
            assert word(s, coeffs) == weyl_word_by_fold(s.d, s.n, s.generators, coeffs)


def test_matrix_cap():
    big = PhaseVector.zero(2, 13)  # D = 8192
    with pytest.raises(ResourceCapError):
        weyl(big)
