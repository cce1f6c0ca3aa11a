"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the test outcomes.
"""

import itertools
import subprocess
import sys
from fractions import Fraction

import numpy as np

from helpers import cached_states, cached_vectors, source_env
from stabkit import (
    PhaseVector,
    enumerate_lagrangians,
    frame_potential_bruteforce,
    frame_potential_combinatorial,
    frame_potential_fixed_state,
    frame_potential_recursion,
    intersection_spectrum,
    kappa,
    lagrangian_count,
    overlap_exact,
    stabilizer_basis,
    symplectic_form,
    transversal_count,
    verify_commutation,
    verify_composition,
    welch_bound,
    weyl,
    weyl_representation,
)
from stabkit.weyl import _omega_power


def report(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_exact_engine_agreement():
    ok = all(
        frame_potential_recursion(d, n, t) == frame_potential_combinatorial(d, n, t)
        for d in (2, 3, 5, 7)
        for n in range(1, 6)
        for t in range(1, 9)
    )
    report(1, ok, "recursion == combinatorial for d in {2,3,5,7}, n 1..5, t 1..8")


def test_criterion_02_single_qubit_base_case():
    vectors = cached_vectors(2, 1)
    ok = True
    for t in range(1, 7):
        expected = float((Fraction(2) ** (2 - t) + 1) / 6)
        value = frame_potential_bruteforce(2, 1, t, vectors=vectors)
        ok = ok and abs(value - expected) <= 1e-9
    report(2, ok, "brute force over the 6 single-qubit states matches (2^(2-t)+1)/6, t 1..6")


def test_criterion_03_design_claims_exact():
    ok = True
    for d in (2, 3, 5):
        for n in range(1, 5):
            ok = ok and frame_potential_combinatorial(d, n, 2) == welch_bound(d**n, 2)
    for n in range(1, 5):
        ok = ok and frame_potential_combinatorial(2, n, 3) == welch_bound(2**n, 3)
    for d in (3, 5):
        for n in range(1, 4):
            ok = ok and frame_potential_combinatorial(d, n, 3) > welch_bound(d**n, 3)
    for n in range(1, 5):
        ok = ok and frame_potential_combinatorial(2, n, 4) > welch_bound(2**n, 4)
    report(3, ok, "2-design always; 3-design iff d=2; never 4-design (exact comparisons)")


def test_criterion_04_counting_oracles():
    ok = True
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        lags = list(enumerate_lagrangians(d, n))
        ok = ok and len(lags) == lagrangian_count(d, n)
        spectrum = intersection_spectrum(lags[0])
        ok = ok and all(spectrum[k] == kappa(d, n, k) for k in range(n + 1))
        ok = ok and spectrum[0] == transversal_count(d, n)
    report(4, ok, "Lagrangian totals, intersection spectra, transverse counts match formulas")


def test_criterion_05_hilbert_space_oracles():
    ok = True
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        pairs = cached_states(d, n)
        for a, va in pairs:
            for b, vb in pairs:
                amp = np.vdot(va, vb)
                numeric = float(amp.real**2 + amp.imag**2)
                ok = ok and abs(numeric - float(overlap_exact(a, b))) <= 1e-10
        dim = d**n
        for m_sub in enumerate_lagrangians(d, n):
            basis = stabilizer_basis(m_sub)
            terms = weyl_representation(m_sub)
            for zeta, vec in basis:
                for m_vec, mat in terms:
                    phase = _omega_power(d, symplectic_form(zeta, m_vec))
                    ok = ok and float(np.max(np.abs(phase * (mat @ vec) - vec))) <= 1e-10
            stack = np.array([vec for _, vec in basis])
            gram = np.conj(stack) @ stack.T
            ok = ok and float(np.max(np.abs(gram - np.eye(dim)))) <= 1e-10
    report(5, ok, "overlaps, eigenvalue equations, and Gram identities at (2,1), (2,2), (3,1)")


def test_criterion_06_fixed_state_at_scale():
    vectors = cached_vectors(2, 3)
    ok = True
    for t in (2, 3, 4):
        exact = float(frame_potential_combinatorial(2, 3, t))
        value = frame_potential_fixed_state(2, 3, t, vectors=vectors)
        ok = ok and abs(value - exact) <= 1e-9
    report(6, ok, "fixed-state sum over 1080 states in D=8 matches exact values, t in {2,3,4}")


def test_criterion_07_weyl_algebra():
    ok = True
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        dim = d**n
        points = [PhaseVector(d, n, c) for c in itertools.product(range(d), repeat=2 * n)]
        for u in points:
            for v in points:
                ok = ok and verify_composition(u, v, tol=1e-12)
                ok = ok and verify_commutation(u, v, tol=1e-12)
        for v in points:
            expected = dim if v.is_zero() else 0.0
            ok = ok and abs(np.trace(weyl(v)) - expected) <= 1e-12
    report(7, ok, "composition, commutation, and trace identities exhaustively to 1e-12")


def test_criterion_08_cli_determinism():
    def run(threads: str) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "stabkit", "verify", "--d", "2", "--n", "2", "--t-max", "4", "--threads", threads],
            capture_output=True,
            env=source_env(),
        )
        return proc.returncode, proc.stdout

    rc1, out1 = run("1")
    rc8, out8 = run("8")
    ok = rc1 == 0 and rc8 == 0 and out1 == out8
    report(8, ok, "verify --d 2 --n 2 --t-max 4 is byte-identical for --threads 1 and 8")
