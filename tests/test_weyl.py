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
    verify_commutation,
    verify_composition,
    verify_relations,
    weyl,
    zx_monomials,
)
from stabkit.errors import _WORK_BYTES, NonPrimeModulusError, ResourceCapError
from stabkit.weyl import _omega_power, _scatter, _tau_powers, _words, tau_order

from helpers import (
    MALFORMED,
    enumerate_subspaces,
    malformed_monomials,
    weyl_word_by_fold,
    zero_vector,
    zx_dense,
    zx_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pv(d, n, *coords):
    return PhaseVector(d, n, tuple(coords))


def all_points(d, n):
    return [PhaseVector(d, n, c) for c in itertools.product(range(d), repeat=2 * n)]


def words(d, n, rows):
    """{c: (e, (P | Q))} of prod_i w(u_i)^{c_i} over the rows u_i, for every c in Z_d^k: weyl._words."""
    points, exponents = _words(d, np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n))
    coeffs = itertools.product(range(d), repeat=len(rows))
    return {c: (e, tuple(p)) for c, e, p in zip(coeffs, exponents.tolist(), points.tolist(), strict=True)}


def word(sub, coeffs):
    """(e, (P | Q)) of w_B at coefficients c, B the generators of sub."""
    return words(sub.d, sub.n, sub.generators)[tuple(coeffs)]


def word_matrix(d, n, w):
    e, point = w
    return _tau_powers(d)[e] * zx_matrix(d, point[:n], point[n:])


def test_tau_phase_values():
    # Quarter turns are exact, and their zero parts are +0.0, never -0.0.
    quarter = _tau_powers(2)
    assert quarter.tolist() == [1, 1j, -1, -1j]
    parts = np.array([quarter.real, quarter.imag])
    assert not np.signbit(parts[parts == 0]).any()
    assert abs(_tau_powers(3)[1] ** 3 - 1) < 1e-12  # tau^d = 1 for odd d
    assert tau_order(2) == 4 and tau_order(3) == 3


def test_shift_boost_pauli():
    # The shift x(q) and the boost z(p) in the dense oracle's stack, at point index sum_i v_i 2^{2n-1-i}.
    eye, x, z, zx = zx_dense(2, 1)
    assert np.allclose(eye, np.eye(2)) and np.allclose(x, X) and np.allclose(z, Z) and np.allclose(zx, Z @ X)
    # The same operators in monomial form: column c holds values[c] at row rows[c].
    rows, values = zx_monomials(2, 1)
    assert rows.tolist() == [[0, 1], [1, 0], [0, 1], [1, 0]]
    assert values.tolist() == [[1, 1], [1, 1], [1, -1], [-1, 1]]
    stack = zx_dense(2, 2)
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
    # One stack of d^{2n} monomials serves every pair, and is left as it was; the trace deviation is bit-identical.
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        points = all_points(d, n)
        zx = zx_monomials(d, n)
        before = [a.copy() for a in zx]
        assert len(zx[0]) == len(points) == d ** (2 * n)
        for v, mat in zip(points, zx_dense(d, n)):
            assert np.array_equal(_tau_powers(d)[-sum(a * b for a, b in zip(v.p, v.q)) % tau_order(d)] * mat, weyl(v))
        trace_dev = max(abs(np.trace(weyl(v)) - (d**n if v.is_zero() else 0.0)) for v in points)
        assert verify_relations(d, n, zx) == (
            all(verify_composition(u, v) for u in points for v in points),
            all(verify_commutation(u, v) for u in points for v in points),
            trace_dev,
        )
        assert verify_relations(d, n, zx)[:2] == (True, True)
        assert all(np.array_equal(a, b) for a, b in zip(zx, before))


def test_verify_relations_works_within_the_budget(monkeypatch):
    # Every u against all d^{2n} points at once held a (d^{2n}, d^n, d^n) product and its temporaries, beside
    # (d^{2n}, d^{2n}) phase tables: 594 KB at (2, 3) and 792 KB at (3, 2), 50 MB at (5, 2). The Weyl matrices
    # are built first, so the measurement holds the check's work only. Blocks of one point and of every point
    # give the same verdicts and the same trace deviation, bit for bit.
    for d, n in [(2, 3), (3, 2)]:
        zx = zx_monomials(d, n)
        tracemalloc.start()
        try:
            result = verify_relations(d, n, zx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[:2] == (True, True)
        assert peak < _WORK_BYTES, (d, n, peak)
        for budget in (1, 2**40):
            monkeypatch.setattr("stabkit.errors._WORK_BYTES", budget)
            assert verify_relations(d, n, zx) == result
        monkeypatch.undo()


def test_the_dense_builders_check_the_space_first():
    # zx_matrices(2, 0), the dense stack this builder replaced, raised a TypeError from reduce and
    # verify_relations(2, 0, ...) an IndexError, while a composite d and a bool n were accepted: zx_matrices(4, 1)
    # returned a stack that verify_relations passed.
    with pytest.raises(ValueError, match="n must be positive"):
        zx_monomials(2, 0)
    with pytest.raises(NonPrimeModulusError, match="got 4"):
        zx_monomials(4, 1)
    with pytest.raises(ValueError, match="n must be a positive int, got True"):
        zx_monomials(2, True)
    with pytest.raises(ValueError, match="n must be positive"):
        verify_relations(2, 0, (np.zeros((1, 1), dtype=int), np.zeros((1, 1))))
    with pytest.raises(NonPrimeModulusError, match="got 4"):
        verify_relations(4, 1, (np.zeros((16, 4), dtype=int), np.zeros((16, 4), dtype=np.complex128)))


def test_verify_relations_refuses_a_stack_for_another_n():
    # A stack for another n failed deep inside numpy with a broadcast error.
    with pytest.raises(ValueError, match=r"values of shape \(16, 4\)$"):
        verify_relations(2, 2, zx_monomials(2, 1))


def test_verify_relations_refuses_a_short_stack():
    rows, values = zx_monomials(2, 1)
    with pytest.raises(ValueError, match=r"values of shape \(4, 2\)$"):
        verify_relations(2, 1, (rows[:3], values))


def test_scattered_monomials_are_the_dense_oracle():
    # Each column's one nonzero, scattered to its row, is the oracle's kron fold entry for entry, the nonzero
    # values bit for bit.
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]:
        rows, values = zx_monomials(d, n)
        oracle = zx_dense(d, n)
        assert rows.shape == values.shape == (d ** (2 * n), d**n) and rows.dtype.kind == "i"
        assert np.array_equal(np.array([_scatter(r, v) for r, v in zip(rows, values)]), oracle)
        nonzero = oracle[np.arange(len(rows))[:, None], rows, np.arange(d**n)]
        assert nonzero.tobytes() == values.tobytes(), (d, n)


def test_a_phase_error_in_one_value_fails_composition(monkeypatch):
    # The column-0 value of x(1) at d = 3 off by a 1e-9 phase: the gathered check and the dense per-pair verifier,
    # which scatters the same monomial form, both refuse composition.
    weyl_module = importlib.import_module("stabkit.weyl")
    real = weyl_module._zx_monomial

    def perturbed(d, p, q):
        rows, values = real(d, p, q)
        if [x % d for x in (*p, *q)] == [0, 1]:
            values = values * np.where(np.arange(d) == 0, np.exp(1e-9j), 1)
        return rows, values

    monkeypatch.setattr(weyl_module, "_zx_monomial", perturbed)
    comp_ok, _, _ = verify_relations(3, 1, zx_monomials(3, 1))
    points = all_points(3, 1)
    assert comp_ok is False and not all(verify_composition(u, v) for u in points for v in points)


def test_a_permuted_column_fails_both_relations():
    # Swapping two entries of x(1)'s rows leaves a permutation, but not a Weyl operator.
    rows, values = zx_monomials(3, 1)
    rows[1, [0, 1]] = rows[1, [1, 0]]
    comp_ok, comm_ok, _ = verify_relations(3, 1, (rows, values))
    assert (comp_ok, comm_ok) == (False, False)


@pytest.mark.parametrize("what", MALFORMED)
def test_verify_relations_refuses_malformed_monomials(what):
    with pytest.raises(ValueError, match=r"expected .*rows.* of shape \(16, 4\)"):
        verify_relations(2, 2, malformed_monomials(2, 2)[what])


def test_a_wrong_omega_fails_commutation_in_both_paths(monkeypatch):
    # Conjugating omega changes nothing at d = 2, so the check runs at d = 3.
    # The package's `weyl` attribute is the function, so the module comes from importlib.
    real = _omega_power
    monkeypatch.setattr(importlib.import_module("stabkit.weyl"), "_omega_power", lambda d, k: real(d, k).conjugate())
    points = all_points(3, 1)
    comp_ok, comm_ok, _ = verify_relations(3, 1, zx_monomials(3, 1))
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
            single, twice = words(d, n, m_sub.generators), words(d, n, m_sub.generators * 2)
            for a in coeff_space:
                for b in coeff_space:
                    total = tuple((x + y) % d for x, y in zip(a, b))
                    # Exact: w_B(a) w_B(b), one word over the basis twice, is w_B(a + b).
                    assert twice[a + b] == single[total]
            mats = {c: word_matrix(d, n, w) for c, w in single.items()}
            for a in coeff_space:
                for b in coeff_space:
                    total = tuple((x + y) % d for x, y in zip(a, b))
                    assert np.max(np.abs(mats[a] @ mats[b] - mats[total])) <= 1e-12


def test_words_match_fold():
    # The closed-form words against the product rule folded factor by factor: every Lagrangian basis, and
    # the RREF bases of all 0-, 1- and 2-dimensional subspaces, isotropic or not, each kind stacked as one
    # (basis, k, 2n) array.
    stacks = [list(enumerate_lagrangians(d, n)) for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]]
    stacks += [list(enumerate_subspaces(d, 2 * n, k)) for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)] for k in (0, 1, 2)]
    for stack in stacks:
        d, n, k = stack[0].d, stack[0].n, stack[0].dim
        gens = np.array([s.generators for s in stack], dtype=np.int64).reshape(len(stack), k, 2 * n)
        points, exponents = _words(d, gens)
        assert points.shape == (len(stack), d**k, 2 * n) and exponents.shape == (len(stack), d**k)
        for s, s_points, s_exponents in zip(stack, points.tolist(), exponents.tolist()):
            coeffs = itertools.product(range(d), repeat=k)
            expect = [weyl_word_by_fold(d, n, s.generators, c) for c in coeffs]
            assert list(zip(s_exponents, map(tuple, s_points))) == expect


def test_matrix_cap():
    big = zero_vector(2, 13)  # D = 8192
    with pytest.raises(ResourceCapError):
        weyl(big)
