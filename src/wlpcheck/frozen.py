"""Immutable value classes whose constructor checks its fields.

Plain records are ``typing.NamedTuple``.  A class that validates or
normalizes its fields subclasses :class:`Frozen` instead: it names them in
``_fields``, checks them in its own ``__init__`` and stores them through
``Frozen.__init__``.  Instances compare, hash and print by those fields, in
order, and refuse assignment.  A subclass is never a tuple, which matters
where ``isinstance(g, tuple)`` tells a power ``(form, k)`` from a polynomial.
"""

from __future__ import annotations


class Frozen:
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
