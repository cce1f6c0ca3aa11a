"""Property-based tests of the subspace algebra over Z_d^{2n}, and of blockwise realization."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import (
    StabilizerState,
    Subspace,
    coset_representatives,
    enumerate_lagrangians,
    intersection_spectrum_of,
    is_lagrangian,
    stabilizer_basis,
)
from stabkit.potential import _chunked_tree, _pairwise_tree
from stabkit.stabilizer import _block, _fill, _overlaps, _points, _span_basis, _stacked_tables

from helpers import (
    contains_coords,
    dense_state_vector,
    from_rows,
    intersect,
    lagrangian_by_transvections,
    overlaps_on_every_shared_point,
    symplectic_complement,
    weyl_terms_by_fold,
    z_fixed_by_every_element,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def spaces(draw):
    return draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))


def rows_in(d, n):
    row = st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n)
    return st.lists(row, max_size=2 * n + 1)


@st.composite
def subspace_pairs(draw):
    d, n = draw(spaces())
    a = from_rows(draw(rows_in(d, n)), d=d, width=2 * n)
    b = from_rows(draw(rows_in(d, n)), d=d, width=2 * n)
    return a, b


@st.composite
def subspace_and_vector(draw):
    d, n = draw(spaces())
    a = from_rows(draw(rows_in(d, n)), d=d, width=2 * n)
    v = draw(st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n))
    return a, v


def assert_canonical(s):
    # The public constructor re-runs the canonical-form check on every field.
    assert Subspace(s.d, s.width, s.generators) == s


@PROPERTY_SETTINGS
@given(subspace_pairs())
def test_dimension_formula(pair):
    a, b = pair
    meet, join = intersect(a, b), from_rows(a.generators + b.generators, d=a.d, width=a.width)
    assert meet.dim + join.dim == a.dim + b.dim
    for s in (a, b, meet, join):
        assert_canonical(s)


@PROPERTY_SETTINGS
@given(subspace_pairs())
def test_complement_dimension_and_involution(pair):
    a, _ = pair
    perp = symplectic_complement(a)
    assert perp.dim == a.width - a.dim
    assert symplectic_complement(perp) == a
    assert_canonical(perp)


@PROPERTY_SETTINGS
@given(subspace_pairs())
def test_canonicalization_is_idempotent(pair):
    a, _ = pair
    assert from_rows(a.generators, d=a.d, width=a.width) == a


@PROPERTY_SETTINGS
@given(subspace_and_vector())
def test_reduce_coords_is_consistent(case):
    a, v = case
    r = a.reduce_coords(v)
    assert all(0 <= x < a.d for x in r)
    assert a.reduce_coords(r) == r
    assert contains_coords(a, [x - y for x, y in zip(v, r)])
    assert contains_coords(a, v) == (not any(r))
    shifted = [x + sum(g[j] for g in a.generators) for j, x in enumerate(v)]
    assert a.reduce_coords(shifted) == r


# ---------------------------------------------------------------------------
# realization, a block at a time


@lru_cache(maxsize=None)
def lagrangians_of(d, n):
    """Every Lagrangian, in enumeration order."""
    return list(enumerate_lagrangians(d, n))


@lru_cache(maxsize=None)
def dense_basis(m_sub):
    """Oracle: the vector of every state of M, each from its dense projector."""
    return np.array([dense_state_vector(StabilizerState(m_sub, zeta)) for zeta in coset_representatives(m_sub)])


@st.composite
def stream_batches(draw):
    """A stretch of consecutive Lagrangians, across pivot patterns, cut into consecutive batches at random places."""
    d, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    stream = lagrangians_of(d, n)
    start = draw(st.integers(0, len(stream) - 1))
    group = stream[start : draw(st.integers(start + 1, min(start + 64, len(stream))))]
    cuts = sorted(draw(st.sets(st.integers(1, len(group)), max_size=6)))
    return group, [group[a:b] for a, b in zip([0, *cuts], [*cuts, len(group)]) if a < b]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stream_batches())
def test_fill_is_the_same_for_any_batching_of_the_stream(case):
    group, batches = case
    d, n = group[0].d, group[0].n
    whole = _fill(d, n, *_block(group))
    assert np.concatenate([_fill(d, n, *_block(batch)) for batch in batches]).tobytes() == whole.tobytes()
    dense = np.array([dense_basis(m_sub) for m_sub in group])
    assert np.max(np.abs(whole - dense)) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stream_batches())
def test_generator_z_test_matches_the_per_element_oracle(case):
    # Realization's Z-only condition is the overlap rule against M_0, read on a greedy basis of each M cap M_0 = M_Z:
    # its (table, x, coset) mask, transposed, against every Z-only element of the full keys.
    _, batches = case
    for batch in batches:
        d, n = batch[0].d, batch[0].n
        (m0_points,), (m0_keys,) = _stacked_tables(lagrangians_of(d, n)[:1])
        points, keys = _block(batch)
        hits = _overlaps(d, n, m0_points, m0_keys, points, keys)[1]
        assert np.array_equal(hits.transpose(0, 2, 1), z_fixed_by_every_element(d, n, points, keys))


def span_of(d, n, basis):
    """The elements spanned by each basis row, closed under the point-sum table one generator at a time."""
    sums = _points(d, n)[0]
    span = np.zeros((len(basis), d**n), dtype=bool)
    span[:, 0] = True
    for t, row in enumerate(basis):
        for g in row:
            for _ in range(d - 1):
                span[t, sums[np.flatnonzero(span[t]), g]] = True
    return span


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stream_batches(), st.randoms(use_true_random=False))
def test_span_basis_spans_exactly_its_mask(case, rng):
    # The Z-only masks M_Z, and masks of M cap N in N's element indices, N drawn from every Lagrangian.
    group, _ = case
    d, n = group[0].d, group[0].n
    z_only = _block(group)[0] % d**n == 0  # Q_m = 0
    lagrangians = lagrangians_of(d, n)
    points = dict(zip(lagrangians, _stacked_tables(lagrangians)[0]))
    meets = [np.isin(points[rng.choice(lagrangians)], points[m_sub]) for m_sub in group]
    for mask in (z_only, np.array(meets)):
        basis = _span_basis(d, n, mask)
        assert basis.shape == (len(group), n)
        assert np.array_equal(span_of(d, n, basis), mask)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stream_batches(), st.randoms(use_true_random=False))
def test_overlap_rule_matches_every_shared_point_on_any_batch(case, rng):
    # One M drawn from the whole space against each batch of consecutive Lagrangians, keyed as _block stacks it.
    group, batches = case
    d, n = group[0].d, group[0].n
    m_sub = rng.choice(lagrangians_of(d, n))
    (points,), (keys,) = _stacked_tables([m_sub])
    for batch in batches:
        args = (d, n, points, keys, *_block(batch))
        sizes, hits = _overlaps(*args)
        expect_sizes, expect_hits = overlaps_on_every_shared_point(*args)
        assert np.array_equal(sizes, expect_sizes) and np.array_equal(hits, expect_hits)
        assert sizes.tolist() == [d ** intersect(m_sub, n_sub).dim for n_sub in batch]


# ---------------------------------------------------------------------------
# past the exhaustive frontier: Lagrangians drawn by transvections


def transvections(d, n, min_size, max_size):
    """Lists of (c, v) steps for lagrangian_by_transvections."""
    step = st.tuples(st.integers(1, d - 1), st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n))
    return st.lists(step, min_size=min_size, max_size=max_size)


@st.composite
def frontier_pairs(draw, d, n):
    """(M, N): M by transvections from M0; N by a prefix of M's steps and up to two more, so that N runs from M
    and its near neighbours to a Lagrangian drawn afresh."""
    steps = draw(transvections(d, n, 1, 3 * n))
    prefix = steps[: draw(st.integers(0, len(steps)), label="prefix")]
    m_sub = lagrangian_by_transvections(d, n, steps)
    return m_sub, lagrangian_by_transvections(d, n, prefix + draw(transvections(d, n, 0, 2)))


@pytest.mark.parametrize("d, n", [(2, 6), (3, 5), (5, 3)])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_lagrangians_past_the_frontier(d, n, data):
    m_sub, n_sub = data.draw(frontier_pairs(d, n))
    assert is_lagrangian(m_sub) and is_lagrangian(n_sub)
    zeta, vec = stabilizer_basis(m_sub)[data.draw(st.integers(0, d**n - 1))]
    assert np.max(np.abs(vec - dense_state_vector(StabilizerState(m_sub, zeta), weyl_terms_by_fold(m_sub)))) <= 1e-12
    points, keys = _stacked_tables([m_sub, n_sub])
    (size,), _ = _overlaps(d, n, points[0], keys[0], points[1:], keys[1:])
    k = intersect(m_sub, n_sub).dim
    assert size == d**k
    # The spectrum counts N by dim M + dim N - the rank of their stacked generators; intersect is its witness.
    assert intersection_spectrum_of(m_sub, [n_sub]) == {j: int(j == k) for j in range(n + 1)}


@pytest.mark.parametrize("d, n, examples", [(2, 6, 6), (3, 5, 2)])
def test_overlap_mask_matches_dense_overlaps_past_the_frontier(d, n, examples):
    # One state of M and one of N, each from its dense projector: |<a|b>|^2 is |M cap N| / d^n where _overlaps
    # says the keys agree on M cap N, and 0 where it says they differ. A dense state at (3, 5) costs about 0.2 s.
    @settings(derandomize=True, max_examples=examples, deadline=None)
    @given(st.data())
    def check(data):
        m_sub, n_sub = data.draw(frontier_pairs(d, n))
        points, keys = _stacked_tables([m_sub, n_sub])
        (size,), (hits,) = _overlaps(d, n, points[0], keys[0], points[1:], keys[1:])
        i = data.draw(st.integers(0, d**n - 1), label="state of M")
        # A pair that overlaps, or one that does not, as drawn: the mask only picks the column, the dense value decides.
        hit = data.draw(st.booleans(), label="overlapping") if 0 < hits[i].sum() < d**n else bool(hits[i, 0])
        j = int(data.draw(st.sampled_from(np.flatnonzero(hits[i] == hit).tolist()), label="state of N"))
        a, b = (
            dense_state_vector(StabilizerState(sub, zeta), weyl_terms_by_fold(sub))
            for sub, c in ((m_sub, i), (n_sub, j))
            for zeta in itertools.islice(coset_representatives(sub), c, c + 1)
        )
        assert abs(abs(np.vdot(a, b)) ** 2 - (size / d**n if hit else 0.0)) <= 1e-12

    check()


# ---------------------------------------------------------------------------
# the fixed reduction tree, a chunk at a time


@st.composite
def streamed_values(draw):
    """Values of every magnitude, a power-of-two chunk size, and cuts of the values into pieces."""
    length = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 2**32 - 1))
    chunk = 2 ** draw(st.integers(0, 12))
    cuts = sorted(draw(st.sets(st.integers(1, length), max_size=8)))
    rng = np.random.default_rng(seed)
    values = rng.random((2, length)) * 10.0 ** rng.integers(-12, 13, size=(2, length))
    return values, chunk, [values[:, a:b] for a, b in zip([0, *cuts], [*cuts, length]) if a < b]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(streamed_values())
def test_chunked_tree_is_the_whole_tree_bit_for_bit(case):
    values, chunk, pieces = case
    assert _chunked_tree(pieces, chunk).tobytes() == _pairwise_tree(values).tobytes()
