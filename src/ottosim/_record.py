"""Immutable records: the value objects of the package.

A record class lists its fields as annotations, each with an optional
class-level default. Record turns them into the class's __signature__
once, at class creation, and generates no code. One __init__ takes a
call that gives every field, all by position or all by keyword, as it
comes and binds any other with __signature__; a binding error is
Python's TypeError with the class name in front. It then calls
__post_init__, which may convert a field with object.__setattr__.
Instances refuse assignment and deletion, compare and hash by their
field tuple and print as Name(field=value); record classes are final.
"""

from inspect import Parameter, Signature


class Record:
    """Base class of every record; see the module docstring."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            raise TypeError(f"{cls.__name__}: a record class cannot be extended")
        cls.__signature__ = Signature(
            [Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, annotation=note,
                       default=cls.__dict__.get(name, Parameter.empty))
             for name, note in cls.__dict__.get("__annotations__", {}).items()],
            return_annotation=None)
        cls._fields = cls.__match_args__ = tuple(cls.__signature__.parameters)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            sig = self.__signature__
            if args or kwargs.keys() != sig.parameters.keys():
                try:
                    call = sig.bind(*args, **kwargs)
                except TypeError as exc:
                    raise TypeError(f"{type(self).__name__}(): {exc}") from None
                call.apply_defaults()
                kwargs = call.arguments
            args = map(kwargs.__getitem__, self._fields)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={v!r}" for f, v in
                            zip(self._fields, self._values())) + ")")
