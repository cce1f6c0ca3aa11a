"""Symplectic geometry over Z_d: canonical forms, enumeration, extensions, cosets."""

import random
from collections import Counter

import pytest

from stabkit import (
    PhaseVector,
    Subspace,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    gaussian_binomial,
    intersection_spectrum,
    intersection_spectrum_of,
    is_isotropic,
    is_lagrangian,
    kappa,
    lagrangian_count,
    symplectic_form,
    transversal_count,
)
from stabkit.errors import DEFAULT_ENUM_CAP, ResourceCapError

from helpers import (
    _dual_partners,
    contains_coords,
    count_subspaces_bruteforce,
    enumerate_subspaces,
    extensions_through,
    from_rows,
    intersect,
    lagrangians_by_filter,
    rebuilt,
    symplectic_complement,
    vectors,
    zero_subspace,
    zero_vector,
)


def pv(d, n, *coords):
    return PhaseVector(d, n, tuple(coords))


def random_vector(rng, d, n):
    return PhaseVector(d, n, tuple(rng.randrange(d) for _ in range(2 * n)))


def span(d, n, *rows):
    return from_rows(rows, d=d, width=2 * n)


def random_subspace(rng, d, n, rows):
    return span(d, n, *(random_vector(rng, d, n).coords for _ in range(rows)))


# ---------------------------------------------------------------------------
# phase vectors and the form


def test_phase_vector_reduction_and_validation():
    v = pv(3, 1, 4, -1)
    assert v.coords == (1, 2)
    with pytest.raises(ValueError):
        PhaseVector(3, 1, (1, 2, 3))
    with pytest.raises(ValueError):
        symplectic_form(pv(2, 1, 1, 0), pv(3, 1, 1, 0))


def test_symplectic_form_examples():
    assert symplectic_form(pv(2, 1, 1, 0), pv(2, 1, 0, 1)) == 1
    # 1*1 - 2*2 = -3 = 0 mod 3
    assert symplectic_form(pv(3, 1, 1, 2), pv(3, 1, 2, 1)) == 0


def test_symplectic_form_antisymmetry():
    rng = random.Random(7)
    for d, n in [(2, 2), (3, 2), (5, 1)]:
        for _ in range(25):
            u, v = random_vector(rng, d, n), random_vector(rng, d, n)
            assert symplectic_form(u, u) == 0
            assert (symplectic_form(u, v) + symplectic_form(v, u)) % d == 0


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_examples():
    dup = span(2, 1, (1, 0), (1, 0))
    assert dup.dim == 1 and dup.generators == ((1, 0),)
    assert span(2, 1).dim == 0
    assert span(2, 1, (3, -2)) == dup  # entries reduce mod d
    with pytest.raises(ValueError):
        from_rows([(1, 0)], d=3, width=4)
    with pytest.raises(ValueError):
        from_rows([(1, 0)], d=4, width=2)
    assert span(2, 1, (1, 1), (0, 1)).generators == ((1, 0), (0, 1))


def test_canonical_form_is_unique():
    rng = random.Random(11)
    for d, n in [(2, 2), (3, 2)]:
        for _ in range(20):
            sub = random_subspace(rng, d, n, rng.randrange(1, 2 * n + 1))
            gens = list(sub.generators)
            if not gens:
                continue
            # random re-spanning: shuffles, scalings, row additions
            alt = gens[:]
            rng.shuffle(alt)
            scale = rng.randrange(1, d)
            extra = [[scale * x for x in alt[0]]]
            for g in alt[1:]:
                c = rng.randrange(d)
                extra.append([x + c * y for x, y in zip(g, alt[0])])
            other = span(d, n, *extra, *alt)
            assert other == sub
            assert hash(other) == hash(sub)


def test_subspace_rejects_noncanonical_rows():
    with pytest.raises(ValueError):
        Subspace(2, 2, ((1, 1), (0, 1)))  # pivot column not cleared
    with pytest.raises(ValueError):
        Subspace(3, 2, ((2, 0),))  # leading entry not 1


def test_subspace_json_roundtrip():
    sub = span(2, 2, (1, 0, 0, 1), (0, 1, 1, 0))
    assert rebuilt(sub.to_json_dict()) == sub


# ---------------------------------------------------------------------------
# isotropy, complement, lattice operations


def test_isotropy_examples():
    line = span(2, 1, (1, 0))
    assert is_isotropic(line) and is_lagrangian(line)
    full = span(2, 1, (1, 0), (0, 1))
    assert not is_isotropic(full)
    p_plane = span(2, 2, (1, 0, 0, 0), (0, 1, 0, 0))
    assert is_lagrangian(p_plane)


def test_complement_examples():
    for m_sub in enumerate_lagrangians(2, 2):
        assert symplectic_complement(m_sub) == m_sub
    assert symplectic_complement(zero_subspace(2, 4)).dim == 4
    comp = symplectic_complement(span(2, 2, (1, 0, 0, 0)))
    assert comp.dim == 3
    assert contains_coords(comp, (1, 0, 0, 0)) and not contains_coords(comp, (0, 0, 1, 0))


def test_complement_involution_and_dimension():
    rng = random.Random(3)
    for d, n in [(2, 2), (3, 2)]:
        for _ in range(20):
            sub = random_subspace(rng, d, n, rng.randrange(0, 2 * n + 1))
            comp = symplectic_complement(sub)
            assert sub.dim + comp.dim == 2 * n
            assert symplectic_complement(comp) == sub
            assert all(symplectic_form(pv(d, n, *u), pv(d, n, *g)) == 0 for u in comp.generators for g in sub.generators)


def test_intersect_sum_dimension_formula():
    rng = random.Random(5)
    for d, n in [(2, 2), (3, 2)]:
        for _ in range(25):
            a = random_subspace(rng, d, n, rng.randrange(0, 2 * n + 1))
            b = random_subspace(rng, d, n, rng.randrange(0, 2 * n + 1))
            inter, total = intersect(a, b), span(d, n, *a.generators, *b.generators)
            assert inter.dim + total.dim == a.dim + b.dim
            for row in inter.generators:
                assert contains_coords(a, row) and contains_coords(b, row)


def test_transversality():
    p_plane = span(2, 2, (1, 0, 0, 0), (0, 1, 0, 0))
    q_plane = span(2, 2, (0, 0, 1, 0), (0, 0, 0, 1))
    assert intersect(p_plane, q_plane).dim == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_subspaces_counts():
    assert len(list(enumerate_subspaces(2, 2, 1))) == 3
    assert len(list(enumerate_subspaces(2, 4, 0))) == 1
    assert len(list(enumerate_subspaces(3, 2, 1))) == 4
    for d, m in [(2, 3), (2, 4), (3, 3)]:
        for k in range(m + 1):
            subs = list(enumerate_subspaces(d, m, k))
            assert len(subs) == gaussian_binomial(m, k, d)
            assert len(set(subs)) == len(subs)


def test_enumerate_subspaces_rejects_an_empty_ambient_space():
    # Subspace(2, 0, ()) is refused by the public constructor, so the enumerator must not yield it.
    for ambient_dim in (0, -1):
        with pytest.raises(ValueError, match="ambient dimension must be positive"):
            enumerate_subspaces(2, ambient_dim, 0)


def test_enumerate_subspaces_matches_bruteforce_spans():
    for d, m, k in [(2, 3, 1), (2, 3, 2), (3, 2, 1)]:
        assert len(list(enumerate_subspaces(d, m, k))) == count_subspaces_bruteforce(d, m, k)


def test_enumeration_is_deterministic():
    first = list(enumerate_subspaces(2, 4, 2))
    second = list(enumerate_subspaces(2, 4, 2))
    assert first == second


def test_enumerate_subspaces_cap():
    with pytest.raises(ResourceCapError):
        enumerate_subspaces(2, 8, 4, cap=10)


def test_enumerate_lagrangians_counts():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        lags = list(enumerate_lagrangians(d, n))
        assert len(lags) == lagrangian_count(d, n)
        assert all(is_lagrangian(m_sub) for m_sub in lags)
        assert len(set(lags)) == len(lags)
    assert len(list(enumerate_lagrangians(2, 1))) == 3
    assert len(list(enumerate_lagrangians(2, 2))) == 15
    assert len(list(enumerate_lagrangians(3, 1))) == 4


def test_enumerate_lagrangians_cap():
    with pytest.raises(ResourceCapError):
        enumerate_lagrangians(2, 9)


def test_enumerate_lagrangians_cap_guards_lagrangian_count():
    count = lagrangian_count(3, 2)
    assert len(list(enumerate_lagrangians(3, 2, cap=count))) == count
    with pytest.raises(ResourceCapError, match=rf"\b{count}\b.*\b{count - 1}\b"):
        enumerate_lagrangians(3, 2, cap=count - 1)


def test_enumerate_lagrangians_accepts_2_5_at_default_cap():
    # 75,735 Lagrangians fit the default cap although binom(10, 5)_2 does not.
    assert gaussian_binomial(10, 5, 2) > DEFAULT_ENUM_CAP
    enumerate_lagrangians(2, 5)


def test_enumerate_lagrangians_matches_filter_witness_in_order():
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)]:
        assert list(enumerate_lagrangians(d, n)) == lagrangians_by_filter(d, n)


def test_enumerate_lagrangians_matches_extension_union_at_2_4():
    d, n = 2, 4
    m_sub = from_rows([[1 if j == i else 0 for j in range(2 * n)] for i in range(n)], d=d, width=2 * n)
    constructed = set()
    for k in range(n + 1):
        for k_sub in _subspaces_of(m_sub, k):
            constructed.update(extensions_through(m_sub, k_sub))
    lags = list(enumerate_lagrangians(d, n))
    assert len(lags) == len(set(lags)) == lagrangian_count(d, n)
    assert set(lags) == constructed


# ---------------------------------------------------------------------------
# intersection spectra


def test_intersection_spectrum_examples():
    m1 = next(iter(enumerate_lagrangians(2, 1)))
    assert intersection_spectrum(m1) == {1: 1, 0: 2}
    m2 = next(iter(enumerate_lagrangians(2, 2)))
    assert intersection_spectrum(m2) == {2: 1, 1: 6, 0: 8}


def test_intersection_spectrum_matches_kappa():
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        m_sub = next(iter(enumerate_lagrangians(d, n)))
        spectrum = intersection_spectrum(m_sub)
        for k in range(n + 1):
            assert spectrum[k] == kappa(d, n, k)


def test_intersection_spectrum_reference_independent():
    lags = list(enumerate_lagrangians(2, 2))
    assert intersection_spectrum(lags[0]) == intersection_spectrum(lags[7])


def test_intersection_spectrum_of_the_lagrangians_in_hand():
    for d, n in [(2, 2), (3, 2)]:
        lags = list(enumerate_lagrangians(d, n))
        for m_sub in (lags[0], lags[-1]):
            # One pass over any iterable: a generator is read once.
            assert intersection_spectrum_of(m_sub, iter(lags)) == intersection_spectrum(m_sub)
    assert intersection_spectrum_of(lags[0], lags[:1]) == {0: 0, 1: 0, 2: 1}
    with pytest.raises(ValueError, match="needs a Lagrangian reference"):
        intersection_spectrum_of(span(2, 2, (1, 0, 0, 0)), lags)
    # A subspace of another ambient space is refused, as intersect refuses it.
    m_sub = next(enumerate_lagrangians(2, 2))
    for other in (next(enumerate_lagrangians(3, 2)), next(enumerate_lagrangians(2, 3))):
        with pytest.raises(ValueError, match="different ambient spaces"):
            intersection_spectrum_of(m_sub, [other])


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_intersection_spectrum_counts_each_pair_as_intersect_does(d, n):
    # The spectrum counts dim(M cap N) by a rank; the Zassenhaus intersection is its witness, pair by pair.
    lags = list(enumerate_lagrangians(d, n))
    for m_sub in lags:
        for n_sub in lags:
            k = intersect(m_sub, n_sub).dim
            assert intersection_spectrum_of(m_sub, [n_sub]) == {j: int(j == k) for j in range(n + 1)}


# ---------------------------------------------------------------------------
# isotropic extension


def test_extensions_through_self():
    m_sub = next(iter(enumerate_lagrangians(2, 2)))
    assert list(extensions_through(m_sub, m_sub)) == [m_sub]


def test_extensions_through_counts_and_sets():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        lags = list(enumerate_lagrangians(d, n))
        m_sub = lags[0]
        for k in range(n + 1):
            seen = set()
            for k_sub in _subspaces_of(m_sub, k):
                exts = list(extensions_through(m_sub, k_sub))
                expected_count = transversal_count(d, n - k) if k < n else 1
                assert len(exts) == expected_count
                assert len(set(exts)) == len(exts)
                expected = {other for other in lags if intersect(m_sub, other) == k_sub}
                assert set(exts) == expected
                assert not (seen & set(exts))
                seen |= set(exts)
            # the union over all k-dim K partitions the kappa bucket
            assert len(seen) == kappa(d, n, k)


def _subspaces_of(sub, k):
    """All k-dim subspaces of sub, via coefficient-space enumeration."""
    for coeff_space in enumerate_subspaces(sub.d, sub.dim, k):
        rows = []
        for crow in coeff_space.generators:
            vec = [0] * sub.width
            for c, g in zip(crow, sub.generators):
                for j in range(sub.width):
                    vec[j] = (vec[j] + c * g[j]) % sub.d
            rows.append(vec)
        yield from_rows(rows, d=sub.d, width=sub.width)


def test_extensions_through_rejects_bad_k():
    lags = list(enumerate_lagrangians(2, 2))
    outside = span(2, 2, (0, 0, 1, 0))
    with pytest.raises(ValueError, match="K must be contained in M"):
        extensions_through(lags[0], outside)


def test_dual_partners_raises_when_unsolvable():
    # a = e_1 lies in K, so [k, b] = 0 and [a, b] = 1 cannot both hold.
    k_sub = span(2, 1, (1, 0))
    with pytest.raises(RuntimeError, match="solvable"):
        _dual_partners(k_sub, [(1, 0)])


# ---------------------------------------------------------------------------
# cosets


def test_coset_representatives_example():
    m_sub = span(2, 1, (0, 1))
    reps = list(coset_representatives(m_sub))
    assert [r.coords for r in reps] == [(0, 0), (1, 0)]


def test_coset_representatives_properties():
    for d, n in [(2, 2), (3, 1)]:
        for m_sub in enumerate_lagrangians(d, n):
            reps = list(coset_representatives(m_sub))
            assert len(reps) == d**n
            assert reps[0].is_zero()
            assert len(set(reps)) == len(reps)
            for rep in reps[:3]:
                shift_row = random.Random(19).choice(list(vectors(m_sub)))
                shifted = PhaseVector(d, n, tuple(x + y for x, y in zip(rep.coords, shift_row)))
                assert canonical_coset_representative(m_sub, shifted) == rep


def test_canonical_representative_of_zero():
    m_sub = next(iter(enumerate_lagrangians(3, 2)))
    assert canonical_coset_representative(m_sub, zero_vector(3, 2)).is_zero()


# ---------------------------------------------------------------------------
# phase-summation identity, by exact residue counting


def test_phase_summation_residue_counts():
    rng = random.Random(23)
    for d, n in [(2, 2), (3, 1), (3, 2)]:
        for _ in range(20):
            w_sub = random_subspace(rng, d, n, rng.randrange(0, 2 * n + 1))
            v = random_vector(rng, d, n)
            counts = Counter(
                symplectic_form(v, PhaseVector(d, n, row)) for row in vectors(w_sub)
            )
            size = d**w_sub.dim
            if all(symplectic_form(v, PhaseVector(d, n, g)) == 0 for g in w_sub.generators):  # v in W^perp
                assert counts == Counter({0: size})
            else:
                assert all(counts[r] == size // d for r in range(d))
