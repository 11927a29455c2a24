"""The base of the checked immutable records. A record with no checks is a
plain typing.NamedTuple; a checked one is a namedtuple subclass with
Checked and a __new__ that checks the fields. Corpus and EditSet are tuple
subclasses of their pairs and edits. Pickling, copy and deepcopy rebuild
any tuple subclass through __new__ from its items, so every copy checks,
and a record that keeps hidden state (the model's totals and decode cache)
leaves it out of the copies with a __getstate__ that returns None."""

from __future__ import annotations


class Checked:
    """Mixin for a namedtuple subclass whose __new__ checks the fields: _make,
    and with it _replace, build through __new__, so they check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
