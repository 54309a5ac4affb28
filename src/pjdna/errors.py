"""Exception hierarchy shared by all pjdna modules, and the integer check
that raises :class:`ConfigError`."""


class PjError(Exception):
    """Base class for all pjdna errors."""


class ConfigError(PjError, ValueError):
    """Invalid codec/layout/profile configuration or unknown preset name."""


class RangeError(PjError, ValueError):
    """A block value or digit lies outside its declared range."""


class CapacityError(PjError, ValueError):
    """Index space or payload capacity exceeded."""


class LayoutError(PjError, ValueError):
    """Primer or strand layout violates the homopolymer discipline."""


class StrandReject(PjError):
    """A read failed strand parsing; ``reason`` is machine readable.

    reason is one of "length", "primer", "corrupt".
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        msg = f"strand rejected: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class FormatError(PjError, ValueError):
    """A file does not follow its declared on-disk format."""


class EmptyLibraryError(FormatError):
    """A sequence file yielded zero parseable records."""


class ShapeError(PjError, ValueError):
    """Array dimensions do not match."""


def require_int(name: str, value, minimum: int = 0) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an ``int``, not a
    ``bool``, of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")


def require_derived(name: str, value, derived: int) -> None:
    """Raise :class:`ConfigError` unless a stored ``value`` is an ``int``,
    not a ``bool``, equal to the ``derived`` one."""
    if not isinstance(value, int) or isinstance(value, bool) or value != derived:
        raise ConfigError(f"{name} must be {derived}, got {value!r}")
