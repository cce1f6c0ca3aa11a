"""Shared exception types and the one resource-cap check."""


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
