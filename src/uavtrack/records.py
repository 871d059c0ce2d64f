"""Immutable record classes, built without code generation.

``@record`` gives a class with annotated fields what
``dataclasses.dataclass(frozen=True)`` would: an ``__init__`` taking the
fields positionally or by keyword, with the class attributes as defaults,
that calls ``__post_init__`` if the class has one; the same ``repr``;
field-wise ``==`` and ``hash`` within one class; and an AttributeError on
assignment or deletion. The field names are in ``_fields``. The methods
are closures over the field list, where ``dataclasses`` compiles their
source per class, which cost most of the package's import time.
"""

from __future__ import annotations

_MISSING = object()


def record(cls: type) -> type:
    """Make ``cls`` an immutable record of its annotated fields, in their order."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    index = {name: i for i, name in enumerate(names)}
    defaults = [cls.__dict__.get(name, _MISSING) for name in names]
    post_init = hasattr(cls, "__post_init__")
    where = f"{cls.__qualname__}.__init__()"

    def bind(args: tuple, kwargs: dict) -> list:
        """Every field's value from ``__init__``'s arguments, or the TypeError a signature would raise."""
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
        values = [*args, *defaults[len(args):]]
        for name, value in kwargs.items():
            i = index.get(name)
            if i is None:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if i < len(args):
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[i] = value
        missing = [name for name, value in zip(names, values) if value is _MISSING]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required argument(s): {', '.join(map(repr, missing))}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        object.__setattr__(self, "__dict__", dict(zip(names, args)))
        if post_init:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, _values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls
