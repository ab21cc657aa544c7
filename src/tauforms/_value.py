"""The base of tauforms' immutable value classes.

A value class names its fields once, in order, as
``__slots__ = __match_args__ = (...)`` (extra slots, such as a cache, stay
out of ``__match_args__``), and its own ``__init__`` validates the
arguments and stores each field with ``object.__setattr__``.  Value
compares, hashes and prints those fields as a frozen dataclass does,
refuses assignment and deletion, and copies, pickles and rebuilds with
fields changed (``_replace``) through the constructor, with no code
generated when a class is defined.
"""


class Value:
    __slots__ = ()
    __match_args__ = ()

    def _astuple(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()

    def _replace(self, **changes):
        """A copy with the named fields changed, built by the constructor,
        so it is validated as any new value is."""
        return type(self)(**dict(zip(self.__match_args__, self._astuple()), **changes))
