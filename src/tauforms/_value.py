"""The base of tauforms' immutable value classes.

A value class names its fields once, in order, as
``__slots__ = __match_args__ = (...)`` (extra slots, such as a cache, stay
out of ``__match_args__``), and values for its last fields, if any, as
``_defaults``.  Value's one constructor stores the fields from positional
arguments, then keywords, then those defaults, with
``object.__setattr__``, and raises a TypeError naming the class for a
missing, unknown, repeated or extra argument.  A class that validates its
arguments or keeps a derived slot (``BracketSpec``, ``CongruenceRecord``,
``Registry``, ``EvalContext``) checks or adds to them around a call to it.
``GradedForm`` alone writes its constructor out: a session builds more of
them than of any other value, and the direct stores skip this one's
argument matching.

Value compares, hashes and prints the fields as a frozen dataclass does,
refuses assignment and deletion, and copies, pickles and rebuilds with
fields changed (``_replace``) through the constructor, with no code
generated when a class is defined.
"""


class Value:
    __slots__ = ()
    __match_args__ = ()
    _defaults = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if not kwargs and len(args) == len(names):
            return
        # the fields after the positional ones, from keywords, then defaults
        cls, rest = type(self).__name__, names[len(args) :]
        if len(args) > len(names):
            raise TypeError(f"{cls}() got {len(args)} positional arguments for the fields {names}")
        for name in kwargs:
            if name not in rest:
                kind = "argument {!r} twice" if name in names else "an unexpected argument {!r}"
                raise TypeError(f"{cls}() got " + kind.format(name))
        defaults = self._defaults
        first_default = len(rest) - len(defaults)
        for i, name in enumerate(rest):
            if name in kwargs:
                value = kwargs[name]
            elif i >= first_default:
                value = defaults[i - first_default]
            else:
                raise TypeError(f"{cls}() missing argument {name!r}")
            object.__setattr__(self, name, value)

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
