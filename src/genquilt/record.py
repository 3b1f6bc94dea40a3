"""A frozen base for the value classes whose constructors validate.

Plain result records are ``typing.NamedTuple``s.  ``SBParams``,
``Decomposition`` and ``Polynomial`` check their input instead, and a tuple
base would clash with ``Decomposition.__len__``.
"""


class FrozenRecord:
    """==, hash, repr and no assignment, as a frozen dataclass over ``__slots__`` has them.

    A subclass's ``__init__`` checks its input and stores each field once
    with ``self._set(name, value)``.
    """

    __slots__ = ()
    _set = object.__setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the validating __init__
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
