"""Immutable value records.

`Record` gives a `__slots__` class the value semantics of a frozen
dataclass: equality and hashing on the tuple of its fields, taken in
`__slots__` order; a repr that names the class and every field; and no
attribute assignment or deletion once built.  Each subclass lists its
fields in `__slots__` and sets them in its own `__init__` through
`object.__setattr__`; a record class is not subclassed further.

The package defines its records this way rather than with `dataclasses`,
whose import (it loads `inspect`, `ast`, `dis` and `tokenize`) and generated
class bodies cost a fresh `knotct` process about 20 ms of its start-up.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # a one-name attrgetter returns the bare value
            cls._fields = lambda self: (get(self),)
        else:
            cls._fields = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__ (slot state cannot be restored by setattr)
        return type(self), self._fields()
