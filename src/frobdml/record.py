"""Plain value records: the fields are the ``__slots__``.

``Record`` fills its fields positionally or by keyword (missing ones from
``_defaults``), compares and hashes by them, prints as ``Name(field=value,
..)`` and refuses assignment after construction.  ``MutableRecord`` allows
assignment and, being mutable, is unhashable.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            kwargs = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or set(kwargs) != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = [kwargs[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"{type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class MutableRecord(Record):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __hash__ = None
