"""Base class of the package's plain value classes."""


class Slotted:
    """A class whose fields are its ``__slots__``, in order.

    Two instances of the same class are equal when their fields are, and
    ``repr`` lists the fields as ``Name(a=1, b=2)``: what ``@dataclass``
    generates, without importing ``dataclasses`` (which loads ``inspect``
    and ``ast``) or compiling code for each class at import, costs every
    CLI process would pay before reading its input. As with a dataclass,
    defining ``__eq__`` leaves instances unhashable unless the subclass
    defines ``__hash__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
