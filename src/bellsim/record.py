"""The immutable base class of bellsim's record types."""


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    ``__init__`` sets each field once with ``object.__setattr__``; afterwards
    assigning or deleting any attribute raises :class:`AttributeError`. Two
    records are equal when they are of the same class with equal fields, the
    hash is that of the fields, and ``repr`` names every field.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy, which bypass __init__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"
