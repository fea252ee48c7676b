"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "DecoderError",
    "InstanceFormatError",
    "InstanceWarning",
    "OracleGuardError",
]


class InstanceWarning(UserWarning):
    """An instance is usable but looks suspicious (e.g. the terminal
    node's travel times differ from the depot's they should copy)."""


class DecoderError(RuntimeError):
    """A decoder raised, or returned a non-finite cost, for some key vector."""


class InstanceFormatError(ValueError):
    """An instance file failed parsing or schema validation.

    The CLI maps this to exit code 2.
    """


class OracleGuardError(RuntimeError):
    """A brute-force oracle refused to run because the instance exceeds
    its enumeration guard.

    The CLI maps this to exit code 3.
    """
