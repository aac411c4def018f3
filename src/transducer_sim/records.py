"""Checked immutable records.

The package's records are ``typing.NamedTuple`` classes decorated with
:func:`checked`, so that their checks run on every construction path: the
constructor, ``_make``, and ``_replace``, which builds through ``_make``
(``tuple.__new__``) and would otherwise skip a custom ``__new__``.  A field
of the wrong type for its annotation, or a float that is not finite, is
refused first, by the record's own error naming it; then a field annotated
``Positive`` that is not above 0, or ``NonNegative`` that is below 0 (a
``NonNegative | None`` one may be None); then the record's ``_check``, if any.
"""

import functools
import math
import operator

Positive = float     # a finite number above 0
NonNegative = float  # a finite number at or above 0

_NUMBER = (math.isfinite, "a number")
_NUMBER_OR_NONE = (lambda value: value is None or math.isfinite(value), "a number or None")

#: field annotation -> (test raising ``TypeError`` on a wrong type and giving
#: False on a float that is not finite, what the field must be, what its
#: value must be if it is signed)
_TYPE_TESTS = {
    "float": (*_NUMBER, None),
    "Positive": (*_NUMBER, "positive"),
    "NonNegative": (*_NUMBER, "nonnegative"),
    "NonNegative | None": (*_NUMBER_OR_NONE, "nonnegative"),
    "int": (operator.index, "an integer", None),  # takes numpy.int64, not 500.0
    "str": (str.__str__, "a string", None),
}

#: sign, None for an unsigned field -> (a test giving True on a value that
#: has it, where ``float.__lt__`` would give NotImplemented on a numpy.int64;
#: the least float that has it)
_SIGNS = {
    "positive": (functools.partial(operator.lt, 0.0), math.ulp(0.0)),
    "nonnegative": (functools.partial(operator.le, 0.0), 0.0),
    None: (None, -math.inf),
}


def checked(record=None, *, error=ValueError):
    """Make ``record``'s ``__new__`` and ``_make`` check it; returns ``record``.

    A field its annotation's test refuses (a ``float`` must be a finite
    number), then a ``Positive`` one not above 0 or a ``NonNegative`` one
    below 0, raises ``error`` naming it; then the record's ``_check`` runs,
    if it has one.  ``@checked(error=E)`` gives the decorator for another
    error type.
    """
    if record is None:
        return functools.partial(checked, error=error)
    new, make = record.__new__, record._make.__func__
    extra = getattr(record, "_check", None)
    # NamedTuple keeps a postponed annotation as a ForwardRef of its text
    kinds = [getattr(kind, "__forward_arg__", kind) for kind in record.__annotations__.values()]
    tests = [(name, *_TYPE_TESTS[kind]) for name, kind in zip(record._fields, kinds)]
    numbers = all(test is math.isfinite for _, test, _, _ in tests)
    least = [_SIGNS[sign][1] for _, _, _, sign in tests]

    def check(self):
        # a record of numbers passes in two C passes, of math.isfinite and of
        # the least floats of its fields' signs; the loops name a refused
        # field, and judge a positive non-float below the least float exactly
        try:
            passed = numbers and (
                all(map(math.isfinite, self)) and all(map(operator.le, least, self)))
        except TypeError:
            passed = False
        if not passed:
            for (name, test, kind, _), value in zip(tests, self):
                try:
                    finite = test(value)
                except TypeError:
                    raise error(f"{name} must be {kind}, not {value!r}") from None
                if finite is False:
                    raise error(f"{name} must be finite, not {value!r}")
            for (name, _, _, sign), value in zip(tests, self):
                if sign and value is not None and not _SIGNS[sign][0](value):
                    raise error(f"{name} must be {sign}")
        if extra is not None:
            extra(self)
        return self

    def __new__(cls, *args, **kwargs):
        return check(new(cls, *args, **kwargs))

    def _make(cls, iterable):
        return check(make(cls, iterable))

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(_make)
    return record
