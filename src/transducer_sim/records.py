"""Checked immutable records.

The package's records are ``typing.NamedTuple`` classes decorated with
:func:`checked`, so that their checks run on every construction path: the
constructor, ``_make``, and ``_replace``, which builds through ``_make``
(``tuple.__new__``) and would otherwise skip a custom ``__new__``.  A field
of the wrong type for its annotation, or a float that is not finite, is
refused first, by the record's own error naming it; then its ``_check``.
"""

import functools
import math
import operator

#: field annotation -> (test raising ``TypeError`` on a wrong type and giving
#: False on a float that is not finite, what the field must be)
_TYPE_TESTS = {
    "float": (math.isfinite, "a number"),
    "float | None": (lambda value: value is None or math.isfinite(value), "a number or None"),
    "int": (operator.index, "an integer"),  # takes numpy.int64, not 500.0
    "str": (str.__str__, "a string"),
}


def checked(record=None, *, error=ValueError):
    """Make ``record``'s ``__new__`` and ``_make`` check it; returns ``record``.

    A field its annotation's test refuses (a ``float`` must be a finite
    number) raises ``error`` naming it; then the record's ``_check`` runs.
    ``@checked(error=E)`` gives the decorator for another error type.
    """
    if record is None:
        return functools.partial(checked, error=error)
    new, make = record.__new__, record._make.__func__
    # NamedTuple keeps a postponed annotation as a ForwardRef of its text
    kinds = [getattr(kind, "__forward_arg__", kind) for kind in record.__annotations__.values()]
    tests = [(name, *_TYPE_TESTS[kind]) for name, kind in zip(record._fields, kinds)]
    floats = set(kinds) == {"float"}

    def check(self):
        # a record of floats passes in one pass of math.isfinite in C; the
        # loop names a refused field, and runs where a value is not finite
        try:
            passed = floats and all(map(math.isfinite, self))
        except TypeError:
            passed = False
        if not passed:
            for (name, test, kind), value in zip(tests, self):
                try:
                    finite = test(value)
                except TypeError:
                    raise error(f"{name} must be {kind}, not {value!r}") from None
                if finite is False:
                    raise error(f"{name} must be finite, not {value!r}")
        self._check()
        return self

    def __new__(cls, *args, **kwargs):
        return check(new(cls, *args, **kwargs))

    def _make(cls, iterable):
        return check(make(cls, iterable))

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(_make)
    return record
