"""The package's immutability code.  Frozen is the base of its immutable
classes that are not NamedTuples: those that cache values on the instance or
check their arguments when built.  Defining a class on it generates and
compiles no methods, a cost every fresh interpreter would otherwise pay on
import.  cached_property fills their caches; read_only freezes the arrays
that are built once and shared."""


class cached_property:
    """functools.cached_property without its lock, for decorating a getter:
    the first read runs it and stores the value in the instance __dict__
    under its name, which later reads find before this non-data descriptor.
    Python 3.11's version takes a class-wide RLock on every first read; like
    3.12's, two threads may both run the getter, and the last value is kept."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


class Frozen:
    """Attributes are set once, by __init__ through vars(self), and later only
    by cached_property (above), which writes the instance __dict__; assigning
    or deleting one raises AttributeError.  repr shows the attributes in _repr."""

    _repr: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__name__}({shown})"


def read_only(*arrays) -> tuple:
    """The arrays, made read-only in place: for arrays built once and shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays
