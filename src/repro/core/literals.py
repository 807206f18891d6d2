"""Literals: the building blocks of rule bodies.

Following Section 2 of the paper, a body literal is one of

* an atomic formula ``Q(x_1, ..., x_n)``           — :class:`Atom`
* a negated atomic formula ``not Q(x_1, ..., x_n)`` — :class:`Negation`
* an equality ``x_i = x_j``                         — :class:`Eq`
* an inequality ``x_i != x_j``                      — :class:`Neq`

Heads are always (positive) atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Tuple, Union

from .terms import Constant, Term, Variable, term


@dataclass(frozen=True)
class Span:
    """A source position ``(line, column)``, both 1-based.

    Parsed rules and atoms carry their span so analysis diagnostics can
    point at real program text; programmatically built syntax has none.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return "%d:%d" % (self.line, self.column)


@dataclass(frozen=True)
class Atom:
    """An atomic formula ``pred(args)``.

    ``span`` is provenance only — it never participates in equality or
    hashing, so a parsed atom and the same atom built in code are one
    value.
    """

    pred: str
    args: Tuple[Term, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __init__(self, pred: str, args, span: Optional[Span] = None) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", tuple(term(a) for a in args))
        object.__setattr__(self, "span", span)

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> FrozenSet[Variable]:
        """The set of variables among the arguments."""
        return frozenset(a for a in self.args if isinstance(a, Variable))

    def negate(self) -> "Negation":
        """The negated literal ``not self``."""
        return Negation(self)

    def substitute(self, binding) -> "Atom":
        """Apply a ``{Variable: value}`` binding, producing constants."""
        return Atom(
            self.pred,
            tuple(
                Constant(binding[a]) if isinstance(a, Variable) and a in binding else a
                for a in self.args
            ),
        )

    def ground_tuple(self, binding) -> Tuple[Any, ...]:
        """The value tuple of this atom under a total binding.

        Raises ``KeyError`` if some variable is unbound.
        """
        return tuple(
            binding[a] if isinstance(a, Variable) else a.value for a in self.args
        )

    def is_ground(self) -> bool:
        """True when all arguments are constants."""
        return all(isinstance(a, Constant) for a in self.args)

    def __str__(self) -> str:
        return "%s(%s)" % (self.pred, ", ".join(str(a) for a in self.args))


@dataclass(frozen=True)
class Negation:
    """A negated atomic formula ``not atom``."""

    atom: Atom

    def variables(self) -> FrozenSet[Variable]:
        """Variables of the underlying atom."""
        return self.atom.variables()

    def __str__(self) -> str:
        return "!%s" % self.atom


@dataclass(frozen=True)
class Eq:
    """An equality literal ``left = right``."""

    left: Term
    right: Term

    def __init__(self, left, right) -> None:
        object.__setattr__(self, "left", term(left))
        object.__setattr__(self, "right", term(right))

    def variables(self) -> FrozenSet[Variable]:
        """Variables among the two sides."""
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def holds(self, lv: Any, rv: Any) -> bool:
        """Evaluate on two values."""
        return lv == rv

    def __str__(self) -> str:
        return "%s = %s" % (self.left, self.right)


@dataclass(frozen=True)
class Neq:
    """An inequality literal ``left != right``."""

    left: Term
    right: Term

    def __init__(self, left, right) -> None:
        object.__setattr__(self, "left", term(left))
        object.__setattr__(self, "right", term(right))

    def variables(self) -> FrozenSet[Variable]:
        """Variables among the two sides."""
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def holds(self, lv: Any, rv: Any) -> bool:
        """Evaluate on two values."""
        return lv != rv

    def __str__(self) -> str:
        return "%s != %s" % (self.left, self.right)


Literal = Union[Atom, Negation, Eq, Neq]

Comparison = (Eq, Neq)
"""Tuple of comparison literal classes, for isinstance checks."""

