"""A faster ``__init__`` for the engine's frozen slots dataclasses.

A frozen dataclass's own ``__init__`` sets each field through
``object.__setattr__`` and then calls ``__post_init__``, which reads the
fields back; the engine builds tens of such records per frame, so that
overhead is a large part of a frame.  :func:`slot_init` replaces only
``__init__``: eq, hash, repr, ``FrozenInstanceError`` on assignment,
``dataclasses.replace``, defaults and keyword arguments stay the
dataclass's.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

__all__ = ["slot_init"]


def slot_init(cls: type) -> type:
    """Give the frozen slots dataclass ``cls`` an ``__init__`` that writes
    each field through its slot descriptor and then, if the class defines
    ``_check``, calls ``cls._check(self, *field values)``, which raises on
    an invalid record.  Generated once, from source, as ``dataclasses``
    generates its own ``__init__``; every field must be a positional
    ``__init__`` parameter with no default factory."""
    fs = fields(cls)
    if not (cls.__dataclass_params__.frozen and "__slots__" in vars(cls)) or any(
        not f.init or f.kw_only or f.default_factory is not MISSING for f in fs
    ):
        raise TypeError(f"{cls.__qualname__} is not a frozen slots dataclass of plain fields")
    names = [f.name for f in fs]
    args = ", ".join(names)
    # The generated function's own globals: the setters and the check.
    ns = {f"__set_{n}": vars(cls)[n].__set__ for n in names}
    body = [f"    __set_{n}(self, {n})" for n in names]
    if "_check" in vars(cls):
        ns["__check"] = vars(cls)["_check"]
        body.append(f"    __check(self, {args})")
    exec(f"def __init__(self, {args}):\n" + "\n".join(body), ns)
    init = ns["__init__"]
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
