"""Stabilizer states: projectors, eigenvalue equations, exact overlaps."""

import importlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    MALFORMED,
    cached_states,
    dense_projector,
    dense_stabilizer_basis,
    dense_state_vector,
    from_rows,
    intersect,
    malformed_monomials,
    overlap_keys_by_intersection,
    overlaps_on_every_shared_point,
    rebuilt,
    single_qubit_rays,
    weyl_word_by_fold,
    zero_vector,
)
from stabkit import (
    PhaseVector,
    StabilizerState,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    enumerate_states,
    frame_potential_combinatorial,
    kappa,
    overlap_exact,
    realized_states,
    stabilizer_basis,
    stabilizer_count,
    state_blocks,
    state_deviations,
    state_vectors,
    symplectic_form,
    weyl,
    weyl_representation,
    zx_monomials,
)
from stabkit.errors import _WORK_BYTES, ResourceCapError
from stabkit.stabilizer import _FILL_BYTES, _block, _fill, _overlaps, _stacked_tables
from stabkit.symplectic import _coset_rows, _form_lift
from stabkit.weyl import _omega_power, _point_index, tau_order


def overlap_block(m_sub, n_sub):
    """The overlap of every state of M (rows) with every state of N, by the overlap rule on their tables."""
    d, n = m_sub.d, m_sub.n
    points, keys = _stacked_tables([m_sub, n_sub])
    (size,), (hits,) = _overlaps(d, n, points[0], keys[0], points[1:], keys[1:])
    return [[Fraction(int(size), d**n) if hit else 0 for hit in row] for row in hits.tolist()]


# ---------------------------------------------------------------------------
# projectors


def test_projector_boost_axis_example():
    m_sub = next(m for m in enumerate_lagrangians(2, 1) if m.generators == ((1, 0),))
    rho = dense_projector(m_sub, zero_vector(2, 1))
    assert abs(np.trace(rho) - 1) <= 1e-10
    assert np.max(np.abs(rho @ rho - rho)) <= 1e-10
    # +1 eigenvector of the stabilizing boost operator
    vec = dense_state_vector(StabilizerState(m_sub, zero_vector(2, 1)))
    z = np.diag([1, -1]).astype(complex)
    assert np.max(np.abs(z @ vec - vec)) <= 1e-10


def test_projector_properties_random_cosets():
    rng = random.Random(31)
    samples = []
    for d, n in [(2, 2), (3, 1)]:
        lags = list(enumerate_lagrangians(d, n))
        for _ in range(10):
            m_sub = rng.choice(lags)
            v = PhaseVector(d, n, tuple(rng.randrange(d) for _ in range(2 * n)))
            samples.append((m_sub, v))
    for m_sub, v in samples:
        rho = dense_projector(m_sub, v)
        assert abs(np.trace(rho) - 1) <= 1e-10
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10


# ---------------------------------------------------------------------------
# state vectors


def test_single_qubit_states_are_the_six_rays():
    vectors = [vec for _, vec in cached_states(2, 1)]
    rays = single_qubit_rays()
    assert len(vectors) == 6
    matched = set()
    for vec in vectors:
        hits = [i for i, ray in enumerate(rays) if abs(abs(np.vdot(ray, vec)) - 1) <= 1e-10]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(range(6))


def test_eigenvalue_equations():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for m_sub in enumerate_lagrangians(d, n):
            terms = weyl_representation(m_sub)
            for zeta, vec in stabilizer_basis(m_sub):
                for m_vec, mat in terms:
                    phase = _omega_power(d, symplectic_form(zeta, m_vec))
                    assert np.max(np.abs(phase * (mat @ vec) - vec)) <= 1e-10


def test_each_lagrangian_gives_an_orthonormal_basis():
    for d, n in [(2, 2), (3, 1)]:
        dim = d**n
        for m_sub in enumerate_lagrangians(d, n):
            stack = np.array([vec for _, vec in stabilizer_basis(m_sub)])
            gram = np.conj(stack) @ stack.T
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10


def test_global_phase_convention():
    for _, vec in cached_states(2, 2):
        idx = next(i for i in range(len(vec)) if abs(vec[i]) > 0.5 * np.max(np.abs(vec)))
        assert vec[idx].real > 0
        assert abs(vec[idx].imag) <= 1e-12


def test_stabilizer_basis_matches_the_dense_projector_oracle():
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        for m_sub in enumerate_lagrangians(d, n):
            closed, dense = stabilizer_basis(m_sub), dense_stabilizer_basis(m_sub)
            assert [zeta for zeta, _ in closed] == [zeta for zeta, _ in dense]
            assert max(float(np.max(np.abs(a - b))) for (_, a), (_, b) in zip(closed, dense)) <= 1e-12


def _q_image_size(m_sub):
    # |Q(M)|: the distinct x-parts of the elements of M, spanned from the generator rows.
    d, n, gens = m_sub.d, m_sub.n, m_sub.generators
    return len(
        {
            tuple(sum(c * g[n + i] for c, g in zip(coeffs, gens)) % d for i in range(n))
            for coeffs in itertools.product(range(d), repeat=len(gens))
        }
    )


def test_realized_vectors_follow_the_phase_convention_exactly():
    # No tolerance: |Q(M)| amplitudes of modulus |Q(M)|^{-1/2}, exact zeros elsewhere,
    # and the first nonzero amplitude has imaginary part exactly 0.
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        for state, vec in cached_states(d, n):
            support = np.flatnonzero(vec)
            size = _q_image_size(state.lagrangian)
            assert len(support) == size
            assert np.max(np.abs(np.abs(vec[support]) - size**-0.5)) <= 1e-12
            first = vec[support[0]]
            assert first.imag == 0.0 and first.real > 0
            if d == 2:
                # tau is a quarter turn: each part is exactly 0.0, never -0.0, or +-|Q(M)|^{-1/2}.
                parts = np.concatenate([vec.real, vec.imag])
                modulus = 1 / math.sqrt(size)
                assert set(parts.tolist()) <= {0.0, modulus, -modulus}
                assert not np.signbit(parts[parts == 0]).any()


def test_realization_meets_m0_in_the_tables_of_the_first_lagrangian(monkeypatch):
    # _fill finds x0 by the overlap rule against M_0 = {(p | 0)}, whose tables it writes in closed form: they are
    # _block's tables of the first enumerated Lagrangian, dtype included.
    stabilizer_module = importlib.import_module("stabkit.stabilizer")
    real_overlaps = stabilizer_module._overlaps
    tables = []

    def overlaps(d, n, points, keys, their_points, their_keys):
        tables.append((points, keys))
        return real_overlaps(d, n, points, keys, their_points, their_keys)

    monkeypatch.setattr(stabilizer_module, "_overlaps", overlaps)
    for d, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)]:
        m_0 = next(iter(enumerate_lagrangians(d, n)))
        tables.clear()
        stabilizer_basis(m_0)
        ((points, keys),) = tables
        (expect_points,), (expect_keys,) = _block([m_0])
        assert np.array_equal(points, expect_points), (d, n)
        assert np.array_equal(keys, expect_keys) and keys.dtype == expect_keys.dtype, (d, n)


def test_realization_refuses_a_state_that_overlaps_no_basis_state():
    # At d = 2 every 2 P_z.x is even, so an odd key on a Z-only element of M_Z's basis leaves no basis state
    # |M_0, x> that the state overlaps. The key stays reduced mod the order of tau, as in every valid table.
    points, keys = _block(list(enumerate_lagrangians(2, 2)))
    _fill(2, 2, points, keys)
    first = np.flatnonzero(points[0] % 4 == 0)[1]  # Q = 0: the first Z-only element after 0, the first basis element
    keys[0, 0, first] = (keys[0, 0, first] + 1) % tau_order(2)
    with pytest.raises(RuntimeError, match="no basis point is fixed by the Z-only elements"):
        _fill(2, 2, points, keys)


def test_realization_builds_no_matrix(monkeypatch):
    expected = {(d, n): cached_states(d, n) for d, n in [(2, 2), (3, 2)]}

    def refuse(*args, **kwargs):
        raise AssertionError("realization built a dense Weyl matrix")

    # Every name a z(p) x(q) is built or scattered to a dense matrix through, in weyl, the one module that builds
    # them; stabilizer.py names no dense builder (test_source). The package's `weyl` attribute is the function, so
    # the module comes from importlib.
    weyl_module = importlib.import_module("stabkit.weyl")
    for name in ("_zx_monomial", "_scatter", "zx_monomials"):
        monkeypatch.setattr(weyl_module, name, refuse)
    with pytest.raises(AssertionError, match="dense Weyl matrix"):
        weyl(zero_vector(2, 2))
    for (d, n), pairs in expected.items():
        assert state_vectors(d, n).tobytes() == np.array([vec for _, vec in pairs]).tobytes()
        realized = list(realized_states(d, n))
        assert len(realized) == stabilizer_count(d, n)
        assert [s for s, _ in realized] == [s for s, _ in pairs]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(realized, pairs))


def test_state_vectors_match_the_per_lagrangian_tables_bit_for_bit(monkeypatch):
    stabilizer_module = importlib.import_module("stabkit.stabilizer")
    real_block = stabilizer_module._block
    batches = []

    def block(m_subs):
        batches.append(list(m_subs))
        return real_block(m_subs)

    monkeypatch.setattr(stabilizer_module, "_block", block)
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (3, 3)]:
        batches.clear()
        stack = state_vectors(d, n)
        blocks = list(batches)
        assert stack.shape == (stabilizer_count(d, n), d**n) and stack.dtype == np.complex128
        # Blocks are consecutive runs of per_run Lagrangians, the last one at most per_run.
        per_run = _WORK_BYTES // (_FILL_BYTES * d ** (2 * n))
        assert [m_sub for block in blocks for m_sub in block] == list(enumerate_lagrangians(d, n))
        assert [len(block) for block in blocks[:-1]] == [per_run] * (len(blocks) - 1) and len(blocks[-1]) <= per_run
        per_lagrangian = np.array([vec for m_sub in enumerate_lagrangians(d, n) for _, vec in stabilizer_basis(m_sub)])
        assert stack.tobytes() == per_lagrangian.tobytes()
        realized = list(realized_states(d, n))
        assert np.array([vec for _, vec in realized]).tobytes() == stack.tobytes()
        # The realized vectors are rows of their blocks, not copies: the d^n rows of one Lagrangian share one base.
        assert all(vec.base is not None for _, vec in realized)
        bases = [realized[i][1].base for i in range(0, len(realized), d**n)]
        assert all(vec.base is bases[i // d**n] for i, (_, vec) in enumerate(realized))
        assert [s for s, _ in realized] == list(enumerate_states(d, n))
    # (3, 3) takes several blocks: 45 runs of 25 Lagrangians, the last of 20.
    assert [len(block) for block in blocks] == [25] * 44 + [20]


def test_state_blocks_work_within_the_budget(monkeypatch):
    # Blocks of 2^14 keys with int64 temporaries peaked at 1.74 MB at (3, 3). The Lagrangians are listed
    # first, so the measurement holds realization only, every block included. One block holds all 135 tables at
    # (2, 3) (299 KB), and a block holds 73 at (2, 4) (439 KB), 25 at (3, 3) (414 KB), 18 at (2, 5) (421 KB, over
    # its first 72 Lagrangians) and 2 at (3, 4) (437 KB, over its first 40), under 512 KiB.
    for d, n, count in [(2, 3, None), (2, 4, None), (3, 3, None), (2, 5, 72), (3, 4, 40)]:
        lagrangians = list(itertools.islice(enumerate_lagrangians(d, n), count))
        monkeypatch.setattr("stabkit.stabilizer.enumerate_lagrangians", lambda d, n: iter(lagrangians))
        next(state_blocks(d, n, state_cap=10**7))  # first-call caches stay out of the measurement
        blocks = state_blocks(d, n, state_cap=10**7)
        tracemalloc.start()
        try:
            states = sum(map(len, blocks))  # map holds no block while the next is built
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states == len(lagrangians) * d**n
        assert peak < _WORK_BYTES, (d, n, peak)


def test_state_deviations_work_within_the_budget(monkeypatch):
    # Overlap blocks of 2^18 // d^{3n} tables took every N >= M at once at (2, 3): a 0.44 MB peak under a 2^17
    # budget. The eigenvalue check held all d^n elements of one M at once: 71 KB at (3, 2) under 2^14. The inputs
    # and the stacked tables are built first, so the measurement holds the checks' work only. Smaller chunks and
    # blocks leave every residual its own product, so the deviations keep their bits.
    for d, n, budget, tol in [(2, 3, 2**17, 1e-15), (3, 2, 2**14, 2e-15)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        vectors, zx = state_vectors(d, n), zx_monomials(d, n)
        unbounded = state_deviations(lagrangians, vectors, zx)
        tables = _stacked_tables(lagrangians)
        monkeypatch.setattr("stabkit.stabilizer._stacked_tables", lambda m_subs: tables)
        monkeypatch.setattr("stabkit.errors._WORK_BYTES", budget)
        tracemalloc.start()
        try:
            deviations = state_deviations(lagrangians, vectors, zx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert deviations == unbounded and max(deviations) <= tol
        assert peak < budget, (d, n, peak)


def test_state_deviations_keep_their_bits():
    # (eigen, gram, overlap) as hex floats, recorded when the checks ran one Lagrangian at a time over
    # per-Lagrangian tables: the flat chunks, the batched Gram matrices and the stacked tables change no bit.
    expected = {
        (2, 2): ("0x0.0p+0", "0x1.0000000000000p-52", "0x1.0000000000000p-51"),
        (3, 2): ("0x1.bed9eba16132cp-50", "0x1.000723c61c498p-51", "0x1.0000000000000p-50"),
        (2, 3): ("0x0.0p+0", "0x1.0000000000000p-52", "0x1.0000000000000p-51"),
        (5, 2): ("0x1.4e61e7bd546f4p-51", "0x1.000008792b93fp-50", "0x1.0000000000000p-49"),
    }
    for (d, n), triple in expected.items():
        lagrangians = list(enumerate_lagrangians(d, n))
        deviations = state_deviations(lagrangians, state_vectors(d, n), zx_monomials(d, n))
        assert tuple(x.hex() for x in deviations) == triple, (d, n)


def test_state_deviations_refuse_inputs_of_another_shape():
    lagrangians = list(enumerate_lagrangians(2, 2))
    vectors, zx = state_vectors(2, 2), zx_monomials(2, 2)
    for args in [(lagrangians, vectors[:-1], zx), (lagrangians, vectors[:, :2], zx)]:
        with pytest.raises(ValueError, match="expected 60 state vectors of length 4"):
            state_deviations(*args)
    with pytest.raises(ValueError, match="expected 56 state vectors"):
        state_deviations(lagrangians[:-1], vectors, zx)
    with pytest.raises(ValueError, match="got none"):
        state_deviations([], vectors, zx)
    # A subspace that is not Lagrangian, or a Lagrangian of another space, in place of the last one.
    line = from_rows([(1, 0, 0, 0)], d=2, width=4)
    for wrong in (line, next(enumerate_lagrangians(2, 1))):
        with pytest.raises(ValueError, match="needs Lagrangian subspaces of one space"):
            state_deviations(lagrangians[:-1] + [wrong], vectors, zx)


@pytest.mark.parametrize("what", MALFORMED)
def test_state_deviations_refuse_malformed_monomials(what):
    lagrangians = list(enumerate_lagrangians(2, 2))
    with pytest.raises(ValueError, match=r"expected .*rows.* of shape \(16, 4\)"):
        state_deviations(lagrangians, state_vectors(2, 2), malformed_monomials(2, 2)[what])


def test_batched_table_matches_the_one_lagrangian_table():
    # The tables stacked over every Lagrangian, in runs of consecutive Lagrangians, against each one's own.
    for d, n in [(2, 3), (3, 2)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        assert points.shape == (len(lagrangians), d**n) and keys.shape == (len(lagrangians), d**n, d**n)
        for m_sub, stacked_points, stacked_keys in zip(lagrangians, points, keys):
            (single_points,), (single_keys,) = _block([m_sub])
            assert np.array_equal(stacked_points, single_points)
            assert np.array_equal(stacked_keys, single_keys)
            # Point indices in zx_monomials order, element by element as weyl_representation lists M.
            elements = [m.coords for m, _ in weyl_representation(m_sub)]
            assert stacked_points.tolist() == _point_index(np.array(elements), d).tolist()


# ---------------------------------------------------------------------------
# exact overlaps


def test_overlap_trivial_cases():
    states = [s for s, _ in cached_states(2, 1)]
    assert overlap_exact(states[0], states[0]) == 1
    same_m = [s for s in states if s.lagrangian == states[0].lagrangian]
    assert overlap_exact(same_m[0], same_m[1]) == 0
    transverse = next(s for s in states if intersect(s.lagrangian, states[0].lagrangian).dim == 0)
    assert overlap_exact(states[0], transverse) == Fraction(1, 2)


def test_overlap_symmetry_and_values():
    pairs = cached_states(3, 1)
    for a, _ in pairs:
        for b, _ in pairs:
            ab = overlap_exact(a, b)
            assert ab == overlap_exact(b, a)
            k = intersect(a.lagrangian, b.lagrangian).dim
            assert ab in (Fraction(0), Fraction(1, 3 ** (1 - k)))


def test_overlap_exact_matches_realized_vectors():
    for d, n in [(2, 1), (3, 1), (2, 2)]:
        pairs = cached_states(d, n)
        for a, va in pairs:
            for b, vb in pairs:
                amp = np.vdot(va, vb)
                numeric = float(amp.real**2 + amp.imag**2)
                assert abs(numeric - float(overlap_exact(a, b))) <= 1e-10


def test_overlap_table_matches_overlap_exact():
    # (2, 2) has Lagrangian pairs whose alignment phase delta is nonzero.
    for d, n in [(2, 2), (3, 1)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        bases = {m_sub: [StabilizerState(m_sub, zeta) for zeta, _ in stabilizer_basis(m_sub)] for m_sub in lagrangians}
        for m_sub in lagrangians:
            for n_sub in lagrangians:
                table = overlap_block(m_sub, n_sub)
                assert len(table) == len(bases[m_sub]) == d**n
                for a, row in zip(bases[m_sub], table):
                    assert row == [overlap_exact(a, b) for b in bases[n_sub]]


def test_overlap_table_needs_no_operator_or_representative_objects(monkeypatch):
    # The overlap rule reads the generator and coset rows directly.
    lagrangians = list(enumerate_lagrangians(2, 2))
    states = {m_sub: [StabilizerState(m_sub, zeta) for zeta in coset_representatives(m_sub)] for m_sub in lagrangians}

    def refuse(*args, **kwargs):
        raise AssertionError("the overlap rule built a Weyl operator or a representative vector")

    # stabilizer.py names no dense-matrix builder (test_source); weyl's is refused where it is looked up.
    monkeypatch.setattr(importlib.import_module("stabkit.weyl"), "_zx_monomial", refuse)
    monkeypatch.setattr("stabkit.stabilizer.coset_representatives", refuse)
    for m_sub in lagrangians:
        for n_sub in lagrangians:
            table = overlap_block(m_sub, n_sub)
            for a, row in zip(states[m_sub], table):
                assert row == [overlap_exact(a, b) for b in states[n_sub]]


def test_overlaps_give_the_table_as_a_mask():
    # dim(M cap N) = 0 leaves only the shared point 0, whose key is 0, and then every pair overlaps.
    for d, n in [(2, 2), (3, 1)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        states = {m_sub: [StabilizerState(m_sub, zeta) for zeta in coset_representatives(m_sub)] for m_sub in lagrangians}
        for mi, m_sub in enumerate(lagrangians):
            sizes, hits = _overlaps(d, n, points[mi], keys[mi], points, keys)
            assert sizes.shape == (len(lagrangians),) and sizes.dtype.kind == "i"
            assert hits.shape == (len(lagrangians), d**n, d**n) and hits.dtype == bool
            for n_sub, size, mask in zip(lagrangians, sizes, hits):
                k = intersect(m_sub, n_sub).dim
                assert size == d**k
                # The float that state_deviations compares against is the exact value's float, bit for bit.
                assert (size / d**n).hex() == float(Fraction(int(size), d**n)).hex()
                block = size / d**n * mask
                exact = [[float(overlap_exact(a, b)) for b in states[n_sub]] for a in states[m_sub]]
                assert np.array_equal(block, np.array(exact))
                if k == 0:
                    assert mask.all()


def test_overlap_exact_refuses_states_of_another_space():
    state = next(enumerate_states(2, 2))
    for other in (next(enumerate_states(2, 1)), next(enumerate_states(3, 2))):
        for a, b in [(state, other), (other, state)]:
            with pytest.raises(ValueError, match="different spaces"):
                overlap_exact(a, b)


def test_overlaps_on_a_basis_match_every_shared_point():
    # The rule compares lambda on a basis of M cap N; the oracle compares it on every shared point. Every pair of
    # Lagrangians is checked, and at (3, 3) every M against a fixed sample of N; each run meets every dim(M cap N).
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        others = random.Random(20).sample(range(len(lagrangians)), 24) if (d, n) == (3, 3) else slice(None)
        seen = set()
        for mi in range(len(lagrangians)):
            args = (d, n, points[mi], keys[mi], points[others], keys[others])
            (sizes, hits), (expect_sizes, expect_hits) = _overlaps(*args), overlaps_on_every_shared_point(*args)
            assert np.array_equal(sizes, expect_sizes)
            assert np.array_equal(hits, expect_hits)
            seen.update(sizes.tolist())
        assert seen == {d**k for k in range(n + 1)}


def test_overlap_rule_matches_the_intersection_witness():
    # Keys on a basis of M cap N against keys on the generators of M cap N, found by intersect: d^{dim(M cap N)}
    # shared points, and the same mask. (2, 2), (3, 1), (3, 2) and (5, 1) are in
    # test_batched_overlap_rule_matches_the_pairwise_witnesses.
    for d, n in [(2, 1), (2, 3)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        for mi, m_sub in enumerate(lagrangians):
            for n_sub, size, mask in zip(lagrangians, *_overlaps(d, n, points[mi], keys[mi], points, keys)):
                witness, wit_m, wit_n = overlap_keys_by_intersection(m_sub, n_sub)
                assert Fraction(int(size), d**n) == witness
                assert np.array_equal(mask, (wit_m[:, None] == wit_n[None, :]).all(-1))


def test_batched_overlap_rule_matches_the_pairwise_witnesses():
    # One call per M against every N: each block must equal the intersection witness, and
    # overlap_exact (the rule's batch of one) on an overlapping and an orthogonal pair of states.
    for d, n in [(2, 2), (3, 1), (3, 2), (5, 1)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        states = {m_sub: [StabilizerState(m_sub, zeta) for zeta in coset_representatives(m_sub)] for m_sub in lagrangians}
        for mi, m_sub in enumerate(lagrangians):
            sizes, hits = _overlaps(d, n, points[mi], keys[mi], points, keys)
            assert len(sizes) == len(hits) == len(lagrangians)
            for n_sub, size, mask in zip(lagrangians, sizes, hits):
                witness, wit_m, wit_n = overlap_keys_by_intersection(m_sub, n_sub)
                value = Fraction(int(size), d**n)
                assert value == witness
                assert np.array_equal(mask, (wit_m[:, None] == wit_n[None, :]).all(-1))
                for i, j in [*np.argwhere(mask)[:1], *np.argwhere(~mask)[:1]]:
                    assert overlap_exact(states[m_sub][i], states[n_sub][j]) == (value if mask[i, j] else 0)


def test_stacked_table_entries_match_the_word_closed_form():
    for d, n in [(2, 3), (3, 2), (5, 2)]:
        order = tau_order(d)
        radix = [d ** (2 * n - 1 - i) for i in range(2 * n)]
        lagrangians = list(enumerate_lagrangians(d, n))
        for m_sub, points, keys in zip(lagrangians, *_stacked_tables(lagrangians)):
            words = [weyl_word_by_fold(d, n, m_sub.generators, c) for c in itertools.product(range(d), repeat=n)]
            assert keys[0].tolist() == [e for e, _ in words]
            assert points.tolist() == [sum(a * r for a, r in zip(point, radix)) for _, point in words]
            expect = [[(2 * _form_lift(z, point, n) + e) % order for e, point in words] for z in _coset_rows(m_sub)]
            assert keys.tolist() == expect


def test_nonzero_overlap_count_per_lagrangian_pair():
    # For dim(M cap N) = k, exactly d^{n-k} of N's d^n states meet |M,0>.
    d, n = 2, 2
    pairs = cached_states(d, n)
    ref = pairs[0][0]
    assert ref.zeta.is_zero()
    by_lagrangian = {}
    for s, _ in pairs:
        by_lagrangian.setdefault(s.lagrangian, []).append(s)
    for n_sub, states in by_lagrangian.items():
        k = intersect(ref.lagrangian, n_sub).dim
        nonzero = sum(1 for s in states if overlap_exact(ref, s) != 0)
        assert nonzero == d ** (n - k)


def test_every_state_sees_the_reference_overlap_distribution():
    # The fixed-state engines rest on the Clifford group acting transitively: every state, not only |M_0, 0>,
    # has kappa(d, n, k) d^{n-k} states at overlap d^{k-n}. Summed over every reference, the histograms give an
    # exact all-pairs frame potential, the exact counterpart of the brute-force engine.
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        lagrangians = list(enumerate_lagrangians(d, n))
        points, keys = _stacked_tables(lagrangians)
        expected = {d**k: kappa(d, n, k) * d ** (n - k) for k in range(n + 1)}
        totals = dict.fromkeys(expected, 0)
        for mi in range(len(lagrangians)):
            sizes, hits = _overlaps(d, n, points[mi], keys[mi], points, keys)
            assert set(sizes.tolist()) <= set(expected)
            met = hits.sum(2)  # (N, state of M): how many of N's states each state of M overlaps
            for size in expected:
                counts = met[sizes == size].sum(0)
                assert counts.tolist() == [expected[size]] * d**n, (d, n, mi, size)
                totals[size] += int(counts.sum())
        count = stabilizer_count(d, n)
        for t in range(1, 6):
            potential = sum(c * Fraction(size, d**n) ** t for size, c in totals.items()) / count**2
            assert potential == frame_potential_combinatorial(d, n, t), (d, n, t)


# ---------------------------------------------------------------------------
# enumeration and identity


def test_enumerate_states_counts():
    assert len(list(enumerate_states(2, 1))) == 6
    assert len(list(enumerate_states(2, 2))) == 60
    assert len(list(enumerate_states(3, 1))) == 12
    assert len(list(enumerate_states(3, 2))) == stabilizer_count(3, 2) == 360


def test_enumerate_states_cap():
    with pytest.raises(ResourceCapError):
        enumerate_states(2, 9)


def test_states_are_distinct_rays():
    states = [s for s, _ in cached_states(2, 2)]
    assert len(set(states)) == len(states)
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert overlap_exact(a, b) != 1


def test_state_identity_is_structural():
    m_sub = next(iter(enumerate_lagrangians(2, 2)))
    reps = list(coset_representatives(m_sub))
    assert StabilizerState(m_sub, reps[1]) == StabilizerState(m_sub, reps[1])
    assert StabilizerState(m_sub, reps[0]) != StabilizerState(m_sub, reps[1])
    shifted = PhaseVector(2, 2, tuple(a + b for a, b in zip(reps[1].coords, m_sub.generators[0])))
    assert StabilizerState(m_sub, canonical_coset_representative(m_sub, shifted)) == StabilizerState(m_sub, reps[1])
    with pytest.raises(ValueError):
        StabilizerState(m_sub, shifted)


def test_state_rejects_non_lagrangian():
    line = from_rows([(1, 0, 0, 0)], d=2, width=4)
    with pytest.raises(ValueError):
        StabilizerState(line, zero_vector(2, 2))


def test_state_json_roundtrip():
    state, vec = cached_states(2, 2)[7]
    obj = state.to_json_dict()
    assert rebuilt(obj) == state
    realized = state.to_json_dict(amplitudes=vec)
    assert len(realized["amplitudes"]) == 4
    assert all(len(pair) == 2 for pair in realized["amplitudes"])

