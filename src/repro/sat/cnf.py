"""CNF formulas and Tseitin encoding helpers.

Literals are non-zero integers in the DIMACS convention: variable ``v`` is
the positive literal ``v``; its negation is ``-v``.  :class:`VarPool` hands
out fresh variables and remembers an optional label for each (here: ground
IDB atoms), so models can be decoded back into relations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Clause = Tuple[int, ...]


class VarPool:
    """A factory of numbered Boolean variables with optional labels."""

    def __init__(self) -> None:
        self._next = 1
        self._label_to_var: Dict[Any, int] = {}
        self._var_to_label: Dict[int, Any] = {}

    def fresh(self, label: Any = None) -> int:
        """Allocate a new variable; ``label`` must be unused if given."""
        if label is not None and label in self._label_to_var:
            raise ValueError("label %r already allocated" % (label,))
        var = self._next
        self._next += 1
        if label is not None:
            self._label_to_var[label] = var
            self._var_to_label[var] = label
        return var

    def var(self, label: Any) -> int:
        """The variable for ``label``, allocating on first use."""
        existing = self._label_to_var.get(label)
        if existing is not None:
            return existing
        return self.fresh(label)

    def label(self, var: int) -> Optional[Any]:
        """The label of ``var``, or ``None`` for anonymous variables."""
        return self._var_to_label.get(var)

    def labelled_vars(self) -> Dict[Any, int]:
        """Copy of the label-to-variable map."""
        return dict(self._label_to_var)

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._next - 1


class CNF:
    """A growable CNF formula.

    ``num_vars`` tracks the largest variable mentioned (or allocated via an
    attached pool), which DIMACS output and the solver both need.
    """

    def __init__(self, pool: Optional[VarPool] = None) -> None:
        self.pool = pool if pool is not None else VarPool()
        self.clauses: List[Clause] = []

    @property
    def num_vars(self) -> int:
        """Largest variable index in use."""
        largest = self.pool.num_vars
        for clause in self.clauses:
            for lit in clause:
                largest = max(largest, abs(lit))
        return largest

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; empty clauses are allowed (and unsatisfiable)."""
        clause = tuple(lits)
        if any(lit == 0 for lit in clause):
            raise ValueError("literal 0 is not allowed")
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for c in clauses:
            self.add_clause(c)

    def add_unit(self, lit: int) -> None:
        """Force a literal."""
        self.add_clause((lit,))

    # ------------------------------------------------------------------
    # Tseitin definitions
    # ------------------------------------------------------------------

    def define_and(self, lits: Sequence[int], label: Any = None) -> int:
        """Fresh ``v`` with ``v <-> AND(lits)``.  Empty conjunction is true."""
        v = self.pool.fresh(label)
        if not lits:
            self.add_unit(v)
            return v
        for lit in lits:
            self.add_clause((-v, lit))
        self.add_clause(tuple(-lit for lit in lits) + (v,))
        return v

    def define_or(self, lits: Sequence[int], label: Any = None) -> int:
        """Fresh ``v`` with ``v <-> OR(lits)``.  Empty disjunction is false."""
        v = self.pool.fresh(label)
        if not lits:
            self.add_unit(-v)
            return v
        for lit in lits:
            self.add_clause((v, -lit))
        self.add_clause(tuple(lits) + (-v,))
        return v

    def add_iff_or(self, v: int, lits: Sequence[int]) -> None:
        """Constrain an existing variable: ``v <-> OR(lits)``."""
        if not lits:
            self.add_unit(-v)
            return
        for lit in lits:
            self.add_clause((v, -lit))
        self.add_clause(tuple(lits) + (-v,))

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return "CNF(vars=%d, clauses=%d)" % (self.num_vars, len(self.clauses))
