"""Record classes without generated code.

`record` gives a class with a hand-written `__init__` the methods that a
dataclass would generate. Its fields are the parameters of that
`__init__`, in order, one or more of them. `__eq__` and `__repr__` read
them. A frozen record hashes their tuple, and its `__setattr__` and
`__delattr__` raise AttributeError, so its `__init__` stores the fields
through the instance `__dict__` or the slot descriptors. A frozen record
is copied and pickled through its constructor, so a copy or an unpickled
record is checked as a new one is. A mutable record has no hash. An
`__eq__`, `__hash__` or `__reduce__` of the class's own is kept.

`frozen` is the one rule that makes a container read-only: a record that
keeps a document or a map stores `frozen(value)`, in which every dict
and list is a `ReadOnlyDict` or a `ReadOnlyList`. A twin equals, shows
and serializes as its plain container and refuses every edit with
TypeError, a second `__init__` included; a copy or a pickle of it is the
plain container, which the constructor that stores it freezes again.
`plain` is the inverse of `frozen`: a deep copy in plain containers.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr


def refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(*, frozen: bool):
    def build(cls):
        code = cls.__init__.__code__
        names = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value
        values = get if len(names) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        @recursive_repr()
        def __repr__(self):
            fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
            return f"{self.__class__.__qualname__}({fields})"

        cls.__repr__ = __repr__
        if "__eq__" not in vars(cls):
            cls.__eq__ = __eq__
        if not frozen:
            cls.__hash__ = None
            return cls
        if "__hash__" not in vars(cls):
            cls.__hash__ = lambda self: hash(values(self))
        cls.__setattr__, cls.__delattr__ = refuse_set, refuse_delete
        if "__reduce__" not in vars(cls):
            cls.__reduce__ = lambda self: (self.__class__, values(self))
        return cls
    return build


def refuse_edit(self, *args, **kwargs):
    raise TypeError(f"a {self.__class__.__name__} cannot be edited; edit a copy")


class ReadOnlyDict(dict):
    __slots__ = ()
    __init__ = __setitem__ = __delitem__ = __ior__ = refuse_edit
    clear = pop = popitem = setdefault = update = refuse_edit

    def __reduce__(self):
        return dict, (dict(self),)


class ReadOnlyList(list):
    __slots__ = ()
    __init__ = __setitem__ = __delitem__ = __iadd__ = __imul__ = refuse_edit
    append = extend = insert = pop = remove = clear = sort = reverse = refuse_edit

    def __reduce__(self):
        return list, (list(self),)


def frozen(value):
    """value with every dict and list in it, at any depth, a read-only
    twin; a tuple stays a tuple of frozen items, and any other value, a
    record say, is returned as it is. A twin's own `__init__` refuses, as
    every edit does, so the plain one fills it here, once."""
    kind = type(value)
    if kind is dict or kind is ReadOnlyDict:
        twin = dict.__new__(ReadOnlyDict)
        dict.__init__(twin, zip(value, map(frozen, value.values())))
        return twin
    if kind is list or kind is ReadOnlyList:
        twin = list.__new__(ReadOnlyList)
        list.__init__(twin, map(frozen, value))
        return twin
    if kind is tuple:
        return tuple(map(frozen, value))
    return value


def plain(value):
    """The inverse of frozen: value with every dict and list in it, at any
    depth, a new plain one; a tuple becomes a tuple of plain items, and any
    other value is returned as it is."""
    kind = type(value)
    if kind is dict or kind is ReadOnlyDict:
        return {key: plain(item) for key, item in value.items()}
    if kind is list or kind is ReadOnlyList:
        return list(map(plain, value))
    if kind is tuple:
        return tuple(map(plain, value))
    return value
