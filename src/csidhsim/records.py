"""Value records: the package's plain data holders.

A record names its fields in ``__slots__`` and sets them once in
``__init__``, through `_init`; any later assignment raises AttributeError.
A field that holds a dict can still be edited in place.  A record equals
only a record of its own class whose fields are equal, so a record never
equals a bare tuple of its values; it hashes by value when its fields
hash, and it pickles by calling its class again with those values, so
unpickling repeats the constructor's checks.
"""

from __future__ import annotations


class Record:
    """Read-only value record, hashable by value."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set every field, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        # The identity test keeps `sk.params != params`, run once per
        # action on the one cached set, from building two tuples.
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"read-only {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"read-only {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
