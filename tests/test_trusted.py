"""Values the library builds in canonical form skip re-validation.

Each trusted construction path is witnessed here by the public, validating
constructor: rebuilding the value through it must give an equal value.
"""

import pytest

from helpers import cached_states, from_rows
from stabkit import (
    PhaseVector,
    StabilizerState,
    Subspace,
    coset_representatives,
    enumerate_lagrangians,
    enumerate_states,
    realized_states,
)
from stabkit.errors import NonPrimeModulusError

GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def _rebuilt(state):
    zeta = PhaseVector(state.d, state.n, state.zeta.coords)
    return StabilizerState(Subspace(state.d, 2 * state.n, state.lagrangian.generators), zeta)


@pytest.mark.parametrize("d,n", GRID)
def test_enumerated_values_pass_the_public_constructors(d, n):
    for s in enumerate_lagrangians(d, n):
        assert Subspace(d, 2 * n, s.generators) == s
        for v in coset_representatives(s):
            assert PhaseVector(d, n, v.coords) == v
    for state in enumerate_states(d, n):
        assert _rebuilt(state) == state
    for state, _ in cached_states(d, n):
        assert _rebuilt(state) == state


def _count_post_init(monkeypatch, cls):
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def test_enumeration_and_realization_skip_validation(monkeypatch):
    subspaces = _count_post_init(monkeypatch, Subspace)
    vectors = _count_post_init(monkeypatch, PhaseVector)
    states = _count_post_init(monkeypatch, StabilizerState)
    assert len(list(enumerate_lagrangians(2, 3))) == 135
    assert subspaces == []
    assert len(list(realized_states(2, 2))) == 60
    assert states == [] and vectors == []
    # The counter itself works: a public construction is counted.
    Subspace(2, 2, ((1, 0),))
    assert subspaces == [1]


def test_from_rows_checks_its_inputs():
    # The tests' span constructor builds through the validating Subspace constructor, never through _trusted.
    with pytest.raises(ValueError, match="ragged"):
        from_rows([(1, 0), (0, 1, 0)], d=2, width=2)
    with pytest.raises(ValueError, match="canonical"):
        from_rows([(1, 0, 0)], d=2, width=2)
    with pytest.raises(NonPrimeModulusError):
        from_rows([(2, 1)], d=4, width=2)
    with pytest.raises(ValueError):
        from_rows([], d=2, width=0)


def test_public_constructors_take_only_integer_coordinates():
    # A float or bool coordinate would reach the JSON output as 1.0 or true, not as the integer it stands for.
    line = Subspace(2, 2, ((1, 0),))
    for build in (
        lambda: PhaseVector(2, 1, (0.5, 1)),
        lambda: PhaseVector(2, 1, (True, 0)),
        lambda: Subspace(2, 2, ((1.0, 0),)),
        lambda: StabilizerState(line, PhaseVector(2, 1, (0, 1.0))),
    ):
        with pytest.raises(ValueError, match="integers"):
            build()
