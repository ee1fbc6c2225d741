"""Field rules: the kind, bound and nullability of a config value, written once.

``Environment``, ``ChannelModelConfig``, ``PhyConfig`` and ``MacTimers``
list their rules in a ``RULES`` table that their ``Checked`` base applies
on construction; ``uwansim.scenario.FIELDS`` reads those rules for their keys
and holds the only copy of the rules of all other keys.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, ClassVar, NamedTuple


class Bound(NamedTuple):
    form: str  # the condition in words around the kind's noun: "positive {}"
    holds: Callable[[Any], bool]


ANY = Bound("{}", lambda v: True)
POSITIVE = Bound("positive {}", lambda v: v > 0)
NON_NEGATIVE = Bound("non-negative {}", lambda v: v >= 0)


def one_of(*names: str) -> Bound:
    return Bound("{} in {{" + ", ".join(names) + "}}", lambda v: v in names)


class Rule(NamedTuple):
    noun: str
    convert: Callable[[Any], Any]  # to the kind; raises or gives None when it cannot
    bound: Bound = ANY
    nullable: bool = False  # null is a value here

    @property
    def expected(self) -> str:
        """The rule in words, as error messages and the README table give it."""
        return self.bound.form.format(self.noun) + (" or null" if self.nullable else "")

    def parse(self, value):
        """``value`` converted to the rule's kind; ValueError when it cannot
        be converted or breaks the bound."""
        if value is None and self.nullable:
            return None
        try:  # YAML's true/false are not numbers or strings here
            out = None if isinstance(value, bool) else self.convert(value)
        except (TypeError, ValueError, OverflowError):
            out = None
        if out is None or not self.bound.holds(out):
            raise ValueError(self.expected)
        return out


def _number(value) -> float:
    out = float(value)  # also parses "1e-7", which PyYAML reads as a string
    if not math.isfinite(out):
        raise ValueError(value)
    return out


def _integer(value) -> int:
    out = int(value)
    if out != value:  # 2.7 is not truncated, and "5" is not an integer
        raise ValueError(value)
    return out


def _node(value) -> tuple[float, float, float]:
    if isinstance(value, str):  # "200" would unpack to three digits
        raise ValueError(value)
    depth, x, y = map(_number, value)  # exactly three
    if depth < 0:
        raise ValueError(value)
    return depth, x, y


number = partial(Rule, "finite number", _number)
integer = partial(Rule, "integer", _integer)
string = partial(Rule, "string", lambda v: v if isinstance(v, str) else None)  # no file is named str([1, 2])
# a seed enters a SeedSequence as one unsigned 64-bit word; a wider or
# negative one would alias a seed in range, and run its streams
SEED = integer(Bound("{} in [0, 2**64)", lambda v: 0 <= v < 1 << 64))
# lists of (depth, x, y) and of node indices
NODES = Rule("list of finite [depth >= 0, x, y]", lambda v: [_node(node) for node in v], nullable=True)
ROUTES = Rule("routes", lambda v: [tuple(map(_integer, route)) for route in v], nullable=True)


class Checked:
    """Base of the config dataclasses: ``__post_init__`` checks the fields
    named in the class's ``RULES`` and raises ValueError naming
    ``Class.attr`` at the first that breaks its rule.

    A value must already be of its kind, that is, convert to an equal
    value: 129.0 is an integer, but "1e-7" is no number.  A value is kept
    as its rule parses it, so an integer field given 129.0 holds the int 129.
    """

    RULES: ClassVar[dict[str, Rule]] = {}

    def __post_init__(self):
        for name, rule in self.RULES.items():
            value = getattr(self, name)
            try:
                parsed = rule.parse(value)
                ok = parsed == value
            except ValueError:
                ok = False
            if not ok:
                article = "an" if rule.expected[0] in "aeiou" else "a"
                raise ValueError(f"{type(self).__name__}.{name} must be {article} {rule.expected}, got {value!r}")
            object.__setattr__(self, name, parsed)  # the config dataclasses are frozen
