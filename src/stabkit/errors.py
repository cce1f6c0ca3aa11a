"""Shared exception types, the one resource-cap check and the one JSON field check."""


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


def json_field(obj: object, key: str, kind: type | tuple[type, ...]) -> object:
    """obj[key] when obj is a dict holding a kind there (a bool is no int); ValueError otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing JSON field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"JSON field {key!r} has the wrong type: {value!r}")
    return value
