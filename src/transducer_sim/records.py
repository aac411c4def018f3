"""Checked immutable records.

The package's records are ``typing.NamedTuple`` classes.  A record with a
range check defines it as a ``_check`` method and is decorated with
:func:`checked`, so that the check runs on every construction path: the
constructor, ``_make``, and ``_replace``, which builds through ``_make``
(``tuple.__new__``) and would otherwise skip a custom ``__new__``.
A ``_check`` can first call :func:`require_numbers` on its numeric
fields, so that a value of the wrong type is refused by the record's own
error, naming the field, before a range check or a run trips over it.
"""

import math
import operator


def checked(record):
    """Make ``record``'s ``__new__`` and ``_make`` run its ``_check``; returns ``record``."""
    new, make = record.__new__, record._make.__func__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(_make)
    return record


def require_numbers(record, error, reals=(), counts=()):
    """Refuse a field in ``reals`` that is no real number, or in ``counts`` no integer.

    A count is what ``operator.index`` takes (so ``numpy.int64`` but not
    ``500.0``), a real number what ``math.isfinite`` takes.  Raises
    ``error`` naming the first such field.
    """
    checks = ((reals, math.isfinite, "a number"), (counts, operator.index, "an integer"))
    for names, test, kind in checks:
        for name in names:
            value = getattr(record, name)
            try:
                test(value)
            except TypeError:
                raise error(f"{name} must be {kind}, not {value!r}") from None
