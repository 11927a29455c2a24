"""Bases of the checked immutable records. A record with no checks is a
plain typing.NamedTuple; both kinds here run their checks on every
construction, a copy made with _replace included. Record serves where tuple
behaviour would be wrong: Corpus and EditSet have a length of their own, and
MixtureCorrectorModel holds derived totals and the decode cache."""

from __future__ import annotations


class Checked:
    """Mixin for a namedtuple subclass whose __new__ checks the fields: _make,
    and with it _replace, build through __new__, so they check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Record:
    """An immutable record that must not be a tuple: __init__ checks the
    fields named in _fields, each a slot, and sets them through _set. It is
    compared, hashed, shown, pickled and copied by those fields alone."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
