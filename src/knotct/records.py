"""Immutable value records.

`Record` gives a `__slots__` class the value semantics of a frozen
dataclass: equality and hashing on the tuple of its fields, taken in
`__slots__` order (so a record that holds a dict, as `ClassificationRun`
does, cannot be hashed); a repr that names the class and every field; and no
attribute assignment or deletion once built.  Each subclass lists its
fields in `__slots__`; a record class is not subclassed further.

`Record.__setattr__` refuses every assignment, so a record's own
`__init__` sets its fields past it, through the slot descriptors' setters:
`__init_subclass__` gives each class `_setters`, one tuple of its slot
descriptors' `__set__`, in `__slots__` order.  An `__init__` runs its checks
and then unpacks `type(self)._setters`, one setter per field; it reads them
from `type(self)`, never from one class bound at import, so a class built
on another record's `__init__` sets its own slots.  A setter call skips the
name lookup `object.__setattr__` makes for each field: an `InvariantReport`,
built once per `obstruct` call, takes 0.65 µs against 1.0 µs that way, and
an `ObstructionVerdict` 0.42 against 0.60 µs (timeit, CPython 3.11, 2-core
x86-64 host).

`FamilySpec` has a second, trusted way in: `montesinos._drawn_specs` sets
the slots of records `enumerate_family` has drawn through
`FamilySpec._setters`, with no `__init__` call.  Any per-record state a
later change adds to `Record` or `FamilySpec.__init__` (a cached hash, a
normalized field) must be set there too, as the shared (name, value) pairs
of `params` are: both ways take them from `montesinos._PAIRS`.
`MontesinosSpec` shares its (beta, alpha) pairs through `_pair_row`'s rows.

A field a record shares with others must not change under them, so a
shared field is immutable: `InvariantReport.method` is a tuple of (field,
route) pairs, and `obstruct` takes each verdict's from one cache of at most
81 tuples (`pipeline._routes`); a closed-form w3 is a `Fraction`, and
every report with the same w3 holds the one object of the bounded cache
`invariants._quarter`.

The package defines its records this way rather than with `dataclasses`,
whose import alone (it loads `inspect`, `ast`, `dis` and `tokenize`) costs a
fresh `knotct` process about 9 ms (`python -X importtime`, CPython 3.11).
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])
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
