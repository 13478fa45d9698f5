"""Immutable value records: the one base of discred's value classes.

A subclass names its fields by annotation, in order.  A field may have a
default: a plain value, or ``field(default=..., compare=False)`` for a
field that ``==`` and ``hash`` skip.  Each subclass gets, as closures
made once when the class is created (no code is compiled):

- ``__init__``, binding positional and keyword arguments as a function
  with one parameter per field would, filling defaults, setting each
  field with ``object.__setattr__`` and then calling ``__post_init__``
  when the class has one;
- ``__eq__`` between instances of one class, on the compared fields,
  and ``__hash__``, the hash of the tuple of those fields;
- ``__repr__``, ``Name(field=value, ...)`` over every field.

Assigning or deleting any attribute raises ``FrozenInstanceError``.
Instances keep their ``__dict__``, so ``functools.cached_property``
works on them.
"""

from operator import attrgetter, itemgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class _Field:
    __slots__ = ("default", "compare")

    def __init__(self, default, compare):
        self.default, self.compare = default, compare


def field(*, default=_MISSING, compare=True):
    """A field's default, and whether ``==`` and ``hash`` read it."""
    return _Field(default, compare)


class Record:
    __slots__ = ()
    _fields = {}    # field name -> _Field, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(cls._fields)
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            if not isinstance(spec, _Field):
                spec = _Field(spec, True)
            if spec.default is _MISSING:
                if name in cls.__dict__:
                    delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
            fields[name] = spec
        cls._fields = fields
        names, count = tuple(fields), len(fields)
        defaults = {name: spec.default for name, spec in fields.items()
                    if spec.default is not _MISSING}
        if tuple(defaults) != names[count - len(defaults):]:
            raise TypeError(f"{cls.__qualname__}: a field without a default "
                            f"follows one with a default")
        by_keyword = _tuple_getter(itemgetter, names)
        key = _tuple_getter(attrgetter, [name for name, spec in fields.items()
                                         if spec.compare])
        post = hasattr(cls, "__post_init__")
        setter = object.__setattr__

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = _bind(cls, names, defaults, by_keyword, args, kwargs)
            for name, value in zip(names, args):
                setter(self, name, value)
            if post:
                self.__post_init__()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
                f"{name}={getattr(self, name)!r}" for name in names))

        for fn in (__init__, __eq__, __hash__, __repr__):
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _tuple_getter(getter, names):
    """``getter(*names)``, returning a tuple also for fewer than two names."""
    if len(names) > 1:
        return getter(*names)
    return lambda obj: tuple(getter(name)(obj) for name in names)


def _bind(cls, names, defaults, by_keyword, args, kwargs):
    """One value per field from ``args`` and ``kwargs``, or the TypeError
    that a function with one parameter per field raises."""
    if not kwargs:      # the last fields left to their defaults
        short = len(names) - len(args)
        if 0 < short <= len(defaults):
            return args + tuple(defaults.values())[len(defaults) - short:]
    elif not args and len(kwargs) == len(names):
        try:    # every field by keyword
            return by_keyword(kwargs)
        except KeyError:
            pass
    rest = names[len(args):]
    where = f"{cls.__qualname__}.__init__()"
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name not in rest:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    if len(args) > len(names):
        most = len(names) + 1       # counting self
        least = most - len(defaults)
        takes = (f"from {least} to {most} positional arguments"
                 if least < most else
                 f"{most} positional argument{'s' * (most > 1)}")
        raise TypeError(f"{where} takes {takes} but {len(args) + 1} were given")
    missing = [repr(name) for name in rest
               if name not in kwargs and name not in defaults]
    if missing:
        listed = (" and ".join(missing) if len(missing) < 3 else
                  ", ".join(missing[:-1]) + ", and " + missing[-1])
        raise TypeError(f"{where} missing {len(missing)} required positional "
                        f"argument{'s' * (len(missing) > 1)}: {listed}")
    return args + tuple(kwargs[name] if name in kwargs else defaults[name]
                        for name in rest)
