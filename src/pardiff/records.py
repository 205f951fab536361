"""The immutable value base shared by every record the library returns."""


class Record:
    """Immutable value over the fields named in ``_fields``, in constructor order.

    Gives value equality (NotImplemented against any other class), a hash
    of the field tuple, a repr naming the class, no assignment, and pickling
    by a constructor call, since unpickling cannot assign to the fields.
    Each subclass sets its fields in ``__init__`` with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())
