"""One decorator for the engine's records: frozen slots dataclasses with
a faster constructor.

A frozen dataclass's own ``__init__`` sets each field through
``object.__setattr__`` and then calls ``__post_init__``, which reads the
fields back; the engine builds tens of such records per frame, so that
overhead is a large part of a frame.  :func:`record` asks ``dataclasses``
for no ``__init__`` and writes a ``__new__``: eq, hash, repr,
``FrozenInstanceError`` on assignment, ``dataclasses.replace``, defaults
and keyword arguments stay the dataclass's.

The ``__new__`` builds each record as an instance of a private twin
class with the same ``__slots__`` and no ``__setattr__`` of its own, so
each field is a plain attribute store, and then gives it the frozen class
by ``__class__`` assignment, which CPython allows between two classes
whose instances have the same layout.  ``__getnewargs__`` hands the init
fields back to ``__new__``, so ``copy`` and ``pickle`` rebuild a record
through it.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields

__all__ = ["record"]


def record(cls: type) -> type:
    """``cls`` as a frozen slots dataclass with a ``__new__`` that stores
    each field on the class's twin, gives the instance ``cls`` as its
    class and then, if ``cls`` defines ``_check``, calls
    ``cls._check(self, *field values)``, which raises on an invalid
    record.  Generated once, from source, as ``dataclasses`` generates
    its own ``__init__``; every field must be a positional parameter with
    no default factory, or a derived one: a field ``f`` with
    ``init=False`` takes the value of the class's static method ``_f``,
    called with the fields its parameters name, before the check."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    fs = fields(cls)
    derive = {f.name: vars(cls).get(f"_{f.name}") for f in fs if not f.init}
    if any(
        f.kw_only
        or f.default_factory is not MISSING
        or not (f.init or isinstance(derive[f.name], staticmethod))
        for f in fs
    ):
        raise TypeError(f"{cls.__qualname__} has a field that is not plain and positional")
    names = [f.name for f in fs if f.init]
    args = ", ".join(names)
    twin = type(f"_{cls.__name__}Twin", (), {"__slots__": cls.__slots__})
    # The generated functions' own globals: the twin, the check and the
    # derivations.
    ns = {"__twin": twin}
    # ``__cls`` and ``__self``, as no field is named so.
    body = ["    __self = __twin()"]
    body += [f"    __self.{n} = {n}" for n in names]
    for n, fn in derive.items():
        ns[f"__derive_{n}"] = fn = fn.__func__
        params = ", ".join(inspect.signature(fn).parameters)
        body.append(f"    __self.{n} = __derive_{n}({params})")
    body.append("    __self.__class__ = __cls")
    if "_check" in vars(cls):
        ns["__check"] = vars(cls)["_check"]
        body.append(f"    __check(__self, {args})")
    body.append("    return __self")
    exec(
        f"def __new__(__cls, {args}):\n" + "\n".join(body) + "\n"
        f"def __getnewargs__(self):\n    return ({''.join(f'self.{n}, ' for n in names)})",
        ns,
    )
    ns["__new__"].__defaults__ = tuple(f.default for f in fs if f.init and f.default is not MISSING)
    for name in ("__new__", "__getnewargs__"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls.__new__ = staticmethod(ns["__new__"])
    cls.__getnewargs__ = ns["__getnewargs__"]
    return cls
