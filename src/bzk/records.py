"""Plain record classes.

A subclass of Record names its fields in __slots__, in order, and sets them
in an explicit __init__, so that positional and keyword construction and
defaults read as in the signature.  Record adds == by class and fields and a
repr that names the fields.  The records do not use dataclasses, whose
import loads inspect, ast, dis and tokenize, about 10 ms a process.
"""


class Record:
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    # mutable, so not hashable
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
