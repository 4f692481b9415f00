"""Immutable value records, without the import cost of dataclasses.

A record class lists its fields in ``__slots__``; ``Record.__init__`` takes
one value per field, in that order, and a subclass that checks its values or
gives a default does so in its own ``__init__`` before calling it.  Records
are read-only, equal only to a record of the same class with equal fields,
hashed by their fields (a record holding a dict is unhashable), and printed
as ``Name(field=value, ...)``.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} "
                            f"values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
