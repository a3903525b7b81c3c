"""The base of the result and option records: dataclass behaviour without the
dataclasses import, which loads inspect, ast and dis.  Fields are the class's
own annotations, in order; a class attribute is a default, ``Factory(f)`` one
made by f() per instance.  ``frozen=True`` makes records read-only, hashable."""

from typing import NamedTuple

Factory = NamedTuple("Factory", [("make", object)])


class Record:
    _fields, _defaults = (), {}

    def __init_subclass__(cls, frozen=False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", cls._fields))
        cls._defaults = {k: getattr(cls, k) for k in cls._fields if hasattr(cls, k)}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = lambda self: hash(tuple(self.as_dict().values()))

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        rest = fields[len(args):]
        wrong = set(kwargs).difference(rest) | set(rest).difference(kwargs, defaults)
        if len(args) > len(fields) or wrong:
            raise TypeError(f"{type(self).__name__}() got {len(args)} positional arguments for "
                            f"{len(fields)} fields; wrong or missing: {sorted(wrong)}")
        self.__dict__.update(zip(fields, args), **kwargs)
        for k in rest:
            if k not in kwargs:
                default = defaults[k]
                self.__dict__[k] = default.make() if isinstance(default, Factory) else default
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def as_dict(self):
        """The fields by name, in declaration order."""
        return {k: self.__dict__[k] for k in self._fields}

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.as_dict() == other.as_dict() if same else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"


def _refuse(self, key, *value):
    from dataclasses import FrozenInstanceError  # only here: that import is slow
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {key!r}")
