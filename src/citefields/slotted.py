"""Base class of the package's plain value classes."""


class Slotted:
    """A class whose fields are its ``__slots__``, in order.

    ``Name(1, b=2)`` sets the fields from the values, then the names, and
    raises ``TypeError`` for a value too many, a name given twice or not a
    field, or a field left out. ``_defaults`` maps an optional field to a
    factory, called when the field is left out or given as None. Equality
    and ``repr`` go by field too: what ``@dataclass`` generates, without
    importing ``dataclasses`` (which loads ``inspect`` and ``ast``) or
    compiling code for each class at import, costs every CLI process would
    pay before reading its input; these methods read ``__slots__`` instead.
    As with a dataclass, defining ``__eq__`` leaves instances unhashable
    unless the subclass defines ``__hash__``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        cls = type(self)
        slots, defaults = cls.__slots__, cls._defaults
        if len(values) > len(slots):
            raise TypeError(f"{cls.__qualname__}() takes {len(slots)} values, got {len(values)}")
        given = dict(zip(slots, values))
        for name in named:
            if name in given or name not in slots:
                how = "twice" if name in given else "that is not a field"
                raise TypeError(f"{cls.__qualname__}() got {name!r} {how}")
        given.update(named)
        for name in slots:
            value = given.get(name)
            if value is None and name in defaults:
                value = defaults[name]()
            elif name not in given:
                raise TypeError(f"{cls.__qualname__}() lacks field {name!r}")
            object.__setattr__(self, name, value)  # object's: TimeWindow refuses assignment

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
