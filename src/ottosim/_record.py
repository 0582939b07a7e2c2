"""Immutable records: the value objects of the package.

A record class lists its fields as annotations in its body, each with an
optional class-level default. Record reads them once, when the subclass
is created, and generates no code: one __init__ binds the arguments of
every record class and then calls __post_init__, which may convert a
field with object.__setattr__. Instances refuse assignment and deletion,
compare and hash by their field tuple, and print as Name(field=value).
"""


class _FieldSignature:
    """inspect.signature of a record class: its fields with their
    annotations and defaults, built when asked for."""

    def __get__(self, obj, cls):
        import inspect
        P = inspect.Parameter
        notes = {}
        for klass in reversed(cls.__mro__):
            notes.update(klass.__dict__.get("__annotations__", {}))
        return inspect.Signature(
            [P(name, P.POSITIONAL_OR_KEYWORD, annotation=notes[name],
               default=cls._defaults.get(name, P.empty))
             for name in cls._fields], return_annotation=None)


class Record:
    """Base class of every record; see the module docstring."""

    _fields = ()
    _defaults = {}
    __signature__ = _FieldSignature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {})
               if name not in cls._fields]
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call, in field order; TypeError for a
        missing, unknown or repeated argument."""
        name, rest = cls.__name__, cls._fields[len(args):]
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} positional "
                            f"arguments but {len(args)} were given")
        unknown = kwargs.keys() - rest
        if unknown:
            key = min(unknown)
            problem = ("multiple values for" if key in cls._fields
                       else "an unexpected keyword")
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        values = {**cls._defaults, **kwargs}
        try:
            return [*args, *map(values.__getitem__, rest)]
        except KeyError as exc:
            raise TypeError(f"{name}() missing required argument "
                            f"{exc.args[0]!r}") from None

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
