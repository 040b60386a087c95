"""Value records: plain ``__slots__`` classes with equality over their fields.

A record's fields are its ``__slots__`` whose names do not start with an
underscore; an underscored slot holds data derived from the fields.  The
records are not dataclasses: importing ``dataclasses`` (which loads
``inspect``) and generating their methods took more than a quarter of
``import nazeta.cli``, which every command pays.
"""

from operator import attrgetter


class Record:
    """Equality and repr over the fields; unhashable, as it is mutable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._fields = fields
        # attrgetter gives a tuple only for two names or more
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        else:
            cls._values = staticmethod(lambda r: tuple(getattr(r, f) for f in fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, hashed by its fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields in order; hot constructors set theirs one by one."""
        for field, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, field, value)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor, since
        # setting the slots one by one is refused
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
