"""The values a network is built from: channels, usage budgets, regimes, edges.

Every value type here, and in the modules built on it, derives from
``Immutable``: its fields are slots, assigning or deleting one raises
AttributeError, and values compare by exact type and value. There is no
generic field-replacing copy: a changed copy is built with the constructor,
which validates it like any other value; ``_from_checked`` builds one from
values that were checked where they were read, without checking them again.
The types are safe to share across concurrent workers. ``_require_finite``
is the one check, for every module, that a value is a finite real number
(and >= 0, if asked), ``_check_ends`` the one check of an edge's two
ends, and ``_sum_in_order`` the one way a printed value is summed.

The general reader of one edge of a network document lives in
``qnetcap.pointwise``: it checks every value with these constructors, so it
raises their messages.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import ClassVar, Union

NodeId = str


def _sum_in_order(values, start=0):
    """start + values[0] + values[1] + ..., rounded after each addition, left to right.

    That is what sum() returned through Python 3.11. From 3.12 on, sum()
    compensates the rounding of floats, which can move the last digit of
    a printed value, so every sum that reaches an output is taken here and
    prints the same bytes under every interpreter.
    """
    return reduce(add, values, start)


def _require_finite(name: str, value: float, *, nonnegative: bool = False) -> float:
    """value as a float; ValueError naming it unless a finite real number, >= 0 if nonnegative."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        as_float = float(value)
    except OverflowError:  # an integer past the float range
        got = f"an integer of {value.bit_length()} bits"
    else:
        if math.isfinite(as_float) and not (nonnegative and as_float < 0):
            return as_float
        got = as_float
    raise ValueError(f"{name} must be finite{' and >= 0' if nonnegative else ''}, got {got}")


def _require_label(name: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string node label, got {value!r}")


def _check_ends(eid: str, tail, head) -> None:
    """ValueError naming edge eid unless its ends are two distinct non-empty string labels."""
    if not (isinstance(tail, str) and tail and isinstance(head, str) and head):
        for key, label in (("tail", tail), ("head", head)):
            _require_label(f"edge {eid!r}: {key}", label)
    if tail == head:
        raise ValueError(f"edge {eid!r}: self-loop at {tail!r} rejected")


class Immutable:
    """Base of the value types: slotted, immutable, compared by exact type and value.

    A subclass names its fields in ``__slots__`` (the field tuple is the
    concatenation along the class chain); it takes them positionally in
    that order in ``__init__`` (one exception: Network takes EdgeSpecs for
    its columns, and its ``__reduce__`` hands it those), and sets them
    there with ``object.__setattr__``. Any other assignment or deletion
    raises AttributeError. The repr reads ``Name(field=value, ...)``, and
    pickling and copying go through the constructor, so a copy is validated
    like the original; a field held as a read-only MappingProxyType view
    goes to it as a dict, since a view cannot be pickled. A slot whose name
    starts with an underscore is not a field: it holds state the
    constructor derives from the fields, and takes no part in equality,
    hashing, repr or pickling.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if name[0] != "_")

    @classmethod
    def _from_checked(cls, *values):
        """An instance holding values in ``__slots__`` order, not checked again.

        For values checked where they were read or derived from checked
        ones; the constructor stays the checked way in.
        """
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(obj, name, value)
        return obj

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple([dict(value) if type(value) is MappingProxyType else value
                                  for value in self._values()])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class LossyOptical(Immutable):
    """Pure-loss optical channel with transmittance eta.

    eta = 1 is rejected: it would give an infinite per-mode capacity.
    eta = 0 is a legal zero-capacity edge.
    """

    __slots__ = ("eta",)

    def __init__(self, eta: float):
        eta = _require_finite("eta", eta)
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {eta}")
        object.__setattr__(self, "eta", eta)


class CustomChannel(Immutable):
    """User-supplied per-use weights: achievable rate and converse upper bound.

    q_cap > esq_upper breaks the sandwich guarantee: parse_network accepts it but warns.
    """

    __slots__ = ("q_cap", "esq_upper")

    def __init__(self, q_cap: float, esq_upper: float):
        q_cap = _require_finite("q_cap", q_cap, nonnegative=True)
        esq_upper = _require_finite("esq_upper", esq_upper, nonnegative=True)
        object.__setattr__(self, "q_cap", q_cap)
        object.__setattr__(self, "esq_upper", esq_upper)


ChannelSpec = Union[LossyOptical, CustomChannel]


class Regime(Enum):
    """Which asymptotic reading of the budgets a report uses."""

    PER_PROTOCOL = "per-protocol"
    PER_CHANNEL_USE = "per-use"
    PER_TIME = "per-time"


class UsageBudget(Immutable):
    """A channel's usage budget, finite and >= 0.

    Only the subclasses are budgets: each names its JSON key (also the
    field named in error messages) and the regime its value is read in.
    """

    __slots__ = ("value",)
    key: ClassVar[str] = "usage"
    regime: ClassVar[Regime]

    def __init__(self, value: float):
        object.__setattr__(self, "value", _require_finite(self.key, value, nonnegative=True))


class Count(UsageBudget):
    """Budget as an absolute number of channel uses."""

    __slots__ = ()
    key = "count"
    regime = Regime.PER_PROTOCOL


class Frequency(UsageBudget):
    """Budget as uses per total channel use."""

    __slots__ = ()
    key = "freq"
    regime = Regime.PER_CHANNEL_USE


class Rate(UsageBudget):
    """Budget as uses per unit time."""

    __slots__ = ()
    key = "rate"
    regime = Regime.PER_TIME


_BUDGET_KINDS = (Count, Frequency, Rate)


class EdgeSpec(Immutable):
    """Directed channel edge. Parallel edges are allowed, self-loops are not."""

    __slots__ = ("id", "tail", "head", "channel", "usage")

    def __init__(self, id: str, tail: NodeId, head: NodeId, channel: ChannelSpec,
                 usage: UsageBudget):
        if not id or not isinstance(id, str):
            raise ValueError(f"edge id must be a non-empty string, got {id!r}")
        _check_ends(id, tail, head)
        if not isinstance(channel, (LossyOptical, CustomChannel)):
            raise ValueError(f"edge {id!r}: unknown channel spec {channel!r}")
        if not isinstance(usage, _BUDGET_KINDS):
            raise ValueError(f"edge {id!r}: unknown usage budget {usage!r}")
        set_field = object.__setattr__  # one lookup: the edges view builds one per channel
        set_field(self, "id", id)
        set_field(self, "tail", tail)
        set_field(self, "head", head)
        set_field(self, "channel", channel)
        set_field(self, "usage", usage)


# --- the columns of a network --------------------------------------------------

# A channel column entry: the eta of a lossy channel, or (q_cap, esq_upper) of a custom one
ChannelParams = Union[float, tuple[float, float]]

_BUDGET_BY_KEY = {cls.key: cls for cls in _BUDGET_KINDS}

