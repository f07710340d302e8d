"""Frozen value records, written by hand so that importing agcalc stays cheap.

A record lists its fields in __slots__ and writes each one once, with
set_field, in its __init__ after validating its arguments. After that no
field can be assigned or deleted. Two records are equal when they are of
the same class and their fields are equal; a record never equals an object
of another class, a tuple of its fields included. A record is unhashable
unless its class defines __hash__: defining __eq__ sets __hash__ to None.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    # pickle and copy restore the fields as they were, bypassing __init__
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            set_field(self, name, value)
