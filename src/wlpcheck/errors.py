"""Shared exception types."""

from __future__ import annotations


class NotArtinianError(Exception):
    """The quotient keeps positive dimension past the degree cap.

    ``partial_dims`` carries the dimensions computed before giving up, so a
    caller can still report what was seen.
    """

    def __init__(self, message: str, partial_dims: tuple[int, ...] = ()):
        super().__init__(message)
        self.partial_dims = tuple(partial_dims)


class GenericityError(Exception):
    """A sampled linear form failed a genericity requirement."""


class HilbertDataError(Exception):
    """Degreewise dimension data is internally inconsistent.

    This never signals bad user input; it means an arithmetic invariant that
    should hold identically was violated, i.e. a bug.
    """


class SpecFormatError(Exception):
    """An ideal description failed to parse or validate."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f"{where}: {message}")
