"""Checked immutable records.

The package's records are ``typing.NamedTuple`` classes.  A record with a
range check defines it as a ``_check`` method and is decorated with
:func:`checked`, so that the check runs on every construction path: the
constructor, ``_make``, and ``_replace``, which builds through ``_make``
(``tuple.__new__``) and would otherwise skip a custom ``__new__``.
"""


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
