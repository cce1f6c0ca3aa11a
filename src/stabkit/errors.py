"""Shared exception types, every limit, and the one rule each for resource caps and batch sizes."""

from typing import Iterator

# The default of each cap, beside the check that enforces it: Lagrangians enumerated, states enumerated or realized,
# state pairs brute-forced, and the Hilbert-space dimension d^n realized.
DEFAULT_ENUM_CAP = 10**7
DEFAULT_STATE_CAP = 10**6
DEFAULT_PAIR_CAP = 25_000_000
DEFAULT_MATRIX_CAP = 4096
# The working memory of one numeric-path block, in bytes, in every layer: realization, either numeric engine,
# stabilizer.state_deviations and weyl.verify_relations. Only _per_batch reads it, so a test patches it here alone.
_WORK_BYTES = 2**19


class NonPrimeModulusError(ValueError):
    """An operation that needs Z_d to be a field got a composite d."""


class ResourceCapError(RuntimeError):
    """An enumeration or realization would exceed its configured cap.

    Caps are hard errors on purpose: silently truncating an enumeration
    would invalidate every count built on top of it.
    """


def check_cap(what: str, need: int, cap: int) -> None:
    """Raise ResourceCapError when ``need`` units of ``what`` exceed ``cap``."""
    if need > cap:
        raise ResourceCapError(f"{what}: need {need}, cap {cap}")


def _per_batch(unit_bytes: int) -> int:
    """The units in one batch of a kernel that holds unit_bytes per unit: as many as fit _WORK_BYTES, one at least."""
    return max(1, _WORK_BYTES // unit_bytes)


def _batches(start: int, stop: int, unit_bytes: int) -> Iterator[slice]:
    """start..stop as consecutive slices of _per_batch(unit_bytes) units; the last may pass stop, as a slice may."""
    step = _per_batch(unit_bytes)
    return map(slice, range(start, stop, step), range(start + step, stop + step, step))
