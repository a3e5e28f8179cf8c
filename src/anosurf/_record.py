"""Record classes without generated code.

`record` gives a class with a hand-written `__init__` the methods that a
dataclass would generate. Its fields are the parameters of that
`__init__`, in order, two or more of them. `__eq__` and `__repr__` read
them. A frozen record hashes their tuple, and its `__setattr__` and
`__delattr__` raise AttributeError, so its `__init__` stores the fields
through the instance `__dict__` or the slot descriptors; a frozen slotted
record is copied and pickled through its constructor. A mutable record
has no hash. An `__eq__` or `__hash__` of the class's own is kept.
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
        values = attrgetter(*names)

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
        if "__slots__" in vars(cls):
            cls.__reduce__ = lambda self: (self.__class__, values(self))
        return cls
    return build
