"""The base of the immutable result records."""


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcls, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """A frozen record whose fields, and slots, are the names annotated in
    its class body.  It is built from them in that order, positionally or by
    keyword, compared and hashed by value, and raises AttributeError when a
    field is assigned or deleted."""

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} of a frozen record cannot be assigned or deleted")
    __delattr__ = __setattr__
