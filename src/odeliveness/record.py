"""Record classes: named fields without generated code.

A record's fields are the names in its own `__slots__`, in order.  The
constructor takes them by position or keyword; `_defaults` maps a trailing
field to its default, and `Factory(dict)` makes a fresh one for each
record.  Slots a record inherits (the formula nodes' memos) start as None.
The constructor ends with the class's `__post_init__`, if it has one;
`_unchecked` then sets the fields without it, for values already checked.
A class may write its own `__init__` instead.  `repr` shows the fields in
order; `copy` and `pickle` rebuild a record through its constructor.

`Record` is mutable, and compares and hashes by identity.  `Frozen` refuses
assignment (`AttributeError`), compares equal only to a record of exactly
its class with equal fields, and hashes as the tuple of those fields.  A
frozen class can name the fields that take part in both in `_compare`.

`dataclasses` (PEP 557) writes and `exec`s the methods of every class it
builds, at every import; nothing here generates code.  No metaclass either:
`isinstance` against a class whose metaclass is not `type` takes a slower
path, and the formula passes test node kinds with it all the time.
"""

from __future__ import annotations

import operator


class Factory:
    """A default made afresh for each record, such as `Factory(dict)`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


_MISSING = object()


class Record:
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__slots__", ()))
        defaults = cls.__dict__.get("_defaults", {})
        cls._fields = fields
        cls._compare = compare = cls.__dict__.get("_compare", fields)
        # `_key(r)` is the tuple of r's compared fields
        get = operator.attrgetter(*compare) if compare else lambda r: ()
        cls._key = staticmethod(get if len(compare) != 1 else lambda r: (get(r),))
        cls._index = {f: i for i, f in enumerate(fields)}
        cls._padding = tuple(defaults.get(f, _MISSING) for f in fields)
        # the fields `_bind` must fill: with no default, or with a Factory
        cls._unfilled = tuple(i for i, f in enumerate(fields) if f not in defaults or type(defaults[f]) is Factory)
        inherited = [s for c in cls.__mro__[1:] for s in c.__dict__.get("__slots__", ()) if s != "__weakref__"]
        post = cls.__dict__.get("__post_init__")
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls, inherited, post)
        if post is not None:  # for values a caller has checked already
            cls._unchecked = _initializer(cls, inherited, None)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # through the constructor, which resets the memo slots: restoring
        # the slots by `setattr` would meet `Frozen`'s guard
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _initializer(cls, inherited, post):
    """An `__init__` for `cls` that ends with `post(self)` unless `post` is
    None.  What it reads lives in the closure, where reading costs less than
    an attribute lookup."""
    n = len(cls._fields)
    # a member descriptor's `__set__` is the fastest generic store, and
    # passes by a frozen class's `__setattr__`
    setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
    memo = tuple(getattr(cls, s).__set__ for s in inherited)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, args, kwargs)
        i = 0
        for set_ in setters:  # indexing beats zip here
            set_(self, args[i])
            i += 1
        for set_ in memo:
            set_(self, None)
        if post is not None:
            post(self)

    return __init__


def _bind(cls, args, kwargs) -> list:
    """The field values of a call `cls(*args, **kwargs)`, in order."""
    names, n = cls._fields, len(args)
    if n > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} fields but {n} were given")
    values = [*args, *cls._padding[n:]]
    for name, value in kwargs.items():
        i = cls._index.get(name, -1)
        if i < n:
            why = "more than one value" if i >= 0 else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {why} for field {name!r}")
        values[i] = value
    for i in cls._unfilled:
        if values[i] is _MISSING:
            raise TypeError(f"{cls.__name__}() missing field {names[i]!r}")
        if values[i] is cls._padding[i]:
            values[i] = values[i].make()
    return values


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))
