"""Exception types and the frozen record base shared across the package."""


class InputError(ValueError):
    """Raised when input cannot be parsed into the documented structures."""


class DomainError(ValueError):
    """Raised when structurally valid input violates a documented precondition."""


class Record:
    """Frozen record: the fields are a subclass's own annotations, a class attribute a default.

    Like ``dataclass(frozen=True)``, but importing no ``inspect`` and compiling no code per class.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {key: cls.__dict__[key] for key in names if key in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() & names[:len(args)] or values.keys() ^ names:
                raise TypeError(f"{type(self).__qualname__}() takes the fields {names}, each once")
            args = map(values.__getitem__, names)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a record with invariants overrides this."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        items = ", ".join(map("{}={!r}".format, self._fields, self._astuple()))
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, key: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {key!r} of a frozen record")

    __delattr__ = __setattr__
