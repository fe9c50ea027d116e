"""One decorator for the engine's records: frozen slots dataclasses with
a faster ``__init__``.

A frozen dataclass's own ``__init__`` sets each field through
``object.__setattr__`` and then calls ``__post_init__``, which reads the
fields back; the engine builds tens of such records per frame, so that
overhead is a large part of a frame.  :func:`record` asks ``dataclasses``
for no ``__init__`` and writes its own: eq, hash, repr,
``FrozenInstanceError`` on assignment, ``dataclasses.replace``, defaults
and keyword arguments stay the dataclass's.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields

__all__ = ["record"]


def record(cls: type) -> type:
    """``cls`` as a frozen slots dataclass with an ``__init__`` that
    writes each field through its slot descriptor and then, if the class
    defines ``_check``, calls ``cls._check(self, *field values)``, which
    raises on an invalid record.  Generated once, from source, as
    ``dataclasses`` generates its own ``__init__``; every field must be a
    positional ``__init__`` parameter with no default factory, or a
    derived one: a field ``f`` with ``init=False`` takes the value of the
    class's static method ``_f``, called with the fields its parameters
    name, once the others are written and checked."""
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
    # The generated function's own globals: the setters, the check and
    # the derivations.
    ns = {f"__set_{f.name}": vars(cls)[f.name].__set__ for f in fs}
    body = [f"    __set_{n}(self, {n})" for n in names]
    if "_check" in vars(cls):
        ns["__check"] = vars(cls)["_check"]
        body.append(f"    __check(self, {args})")
    for n, fn in derive.items():
        ns[f"__derive_{n}"] = fn = fn.__func__
        params = ", ".join(inspect.signature(fn).parameters)
        body.append(f"    __set_{n}(self, __derive_{n}({params}))")
    exec(f"def __init__(self, {args}):\n" + "\n".join(body), ns)
    init = ns["__init__"]
    init.__defaults__ = tuple(f.default for f in fs if f.init and f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
