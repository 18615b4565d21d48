"""Immutable records without the dataclasses module, which costs every command start-up time."""

_tuple_new, _tuple_eq, _tuple_ne = tuple.__new__, tuple.__eq__, tuple.__ne__


def record(cls: type) -> type:
    """The NamedTuple class cls, equal only to a record of its own class with
    equal fields (so never to a plain tuple), and hashed as the tuple of its
    fields.  If cls defines __post_init__, each construction through cls
    calls it; _make and _replace skip it, so nothing checked uses them."""
    cls.__eq__ = lambda self, other: type(other) is type(self) and _tuple_eq(self, other)
    cls.__ne__ = lambda self, other: type(other) is not type(self) or _tuple_ne(self, other)
    if "__post_init__" in vars(cls):
        make, n = cls.__new__, len(cls._fields)

        def __new__(kind, *args, **kwargs):
            # every field given by position (the package's calls) skips make's frame
            full = len(args) == n and not kwargs
            self = _tuple_new(kind, args) if full else make(kind, *args, **kwargs)
            self.__post_init__()  # looked up on the class at each call, so it can be wrapped
            return self

        cls.__new__ = __new__
    return cls


class Frozen:
    """Base of a record held in slots, which its __init__ sets once with
    object.__setattr__: assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle set the slots of a bare instance once
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
