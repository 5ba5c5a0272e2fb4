"""``Record``: the frozen value class behind fans, cones, bundles and verdicts.

It behaves like a ``@dataclass(frozen=True)`` class: the fields are the
class's public annotations in order, a class attribute of a field's name is
its default, ``__post_init__`` runs after the fields are set, equality and
the hash read the tuple of field values, the repr is dataclass's text, and
assignment raises ``AttributeError``.  Unlike dataclass it writes and
``exec``s no code per class, and it imports neither ``dataclasses`` nor,
through it, ``inspect``: ``__init_subclass__`` only reads the fields, and
every method is shared.  So the classes cost next to nothing at import,
which every CLI call pays (README, "Start-up").  Attributes whose names
start with ``_`` are not fields: a ``__post_init__`` or a
``functools.cached_property`` keeps its caches there, out of equality,
hash and repr.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__
_MISSING = object()  # a field without a default


class Record:
    """Base of a frozen record class with at least one annotated field."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__dict__.get("__annotations__", {})
               if not f.startswith("_") and f not in cls._fields]
        cls._fields = fields = cls._fields + tuple(own)
        cls._defaults = tuple(getattr(cls, f, _MISSING) for f in fields)
        cls._key = attrgetter(*fields)  # the field values; one field gives the bare value

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        # one object.__setattr__ per field, as dataclass does: on CPython 3.11,
        # touching self.__dict__ would make every later attribute read slower
        for f, a in zip(fields, args):
            _set(self, f, a)
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the arguments and the defaults."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = [*args, *self._defaults[len(args):]]
        for f, a in kwargs.items():
            if f not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {f!r}")
            i = fields.index(f)
            if i < len(args):
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
            values[i] = a
        for f, a in zip(fields, values):
            if a is _MISSING:
                raise TypeError(f"{name}() missing required argument {f!r}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
