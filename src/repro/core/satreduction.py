"""Fixpoint analysis through SAT — the paper's NP machinery, executable.

Section 3 opens with the NP membership argument: *"One has to guess
relations of size n^s ... and verify (also in time n^s) that the relations
guessed indeed constitute a fixpoint."*  This module compiles that
guess-and-verify step into CNF: after grounding, ``S`` is a fixpoint of
``(pi, D)`` iff for every derivable ground atom ``h``

    h in S   <->   OR over ground rules r for h of
                   ( AND_{p in pos(r)} p in S  AND  AND_{n in neg(r)} n not in S )

and every underivable atom is out of ``S``.  The encoding is read off
the ground program's index in atom ids (:class:`GroundProgramIndex`):
one variable per derivable atom id, in id order, each rule body taken
from the ``by_pos`` / ``by_neg`` occurrence lists.  A model comes back
as atom flags and leaves as code-only relations
(:meth:`AtomCodes.relation`); no ground rule or atom value is decoded.
Models of the CNF are exactly the fixpoints, so the built-in DPLL solver
decides, through :mod:`repro.sat.counting`:

* **existence**   (Theorem 1's object of study) — ``has_model``, one SAT
  call;
* **uniqueness**  (Theorem 2, the US-complete problem) — ``unique_model``,
  two SAT calls;
* **leastness**   (Theorem 3) — via the paper's characterisation: a least
  fixpoint exists iff the intersection of *all* fixpoints is itself a
  fixpoint.  The intersection is computed with polynomially many oracle
  calls (a backbone computation over one solver), matching the
  FO(NP)/Delta_2^p upper bound's flavour;
* **counting/enumeration** — ``enumerate_models``' blocking-clause
  AllSAT, cross-checked against brute-force enumeration in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..db.database import Database
from ..sat.cnf import CNF
from ..sat.counting import enumerate_models, has_model, unique_model
from ..sat.solver import Solver
from .grounding import GroundProgram, ground_program
from .operator import IDBMap
from .program import Program


class FixpointSAT:
    """The CNF encoding of ``Theta(S) = S`` for one ``(program, db)`` pair.

    Attributes
    ----------
    cnf:
        The compiled formula.  Variable ``v`` in :attr:`variables` is the
        derivable atom ``atoms[v - 1]``; later variables are anonymous
        Tseitin auxiliaries for multi-literal rule bodies.
    atoms:
        The derivable atom ids of ``ground.index``, in increasing order.
    variables:
        The atom variables, ``1 .. len(atoms)``.
    """

    def __init__(
        self, program: Program, db: Database, ground: Optional[GroundProgram] = None
    ) -> None:
        self.program = program
        self.ground = ground if ground is not None else ground_program(program, db)
        index = self.ground.index
        self.atoms = np.flatnonzero([bool(rules) for rules in index.by_head])
        self.cnf = cnf = CNF()
        var = {a: cnf.pool.fresh() for a in self.atoms.tolist()}
        self.variables = range(1, len(var) + 1)
        # Each rule's body literals over derivable atoms (an underivable
        # negated atom holds), and its positive atoms left unmet.
        body: List[List[int]] = [[] for _ in index.head]
        unmet = list(index.npos)
        for a, v in var.items():
            for r in index.by_pos[a]:
                body[r].append(v)
                unmet[r] -= 1
            for r in index.by_neg[a]:
                body[r].append(-v)
        for a, v in var.items():
            reps: List[int] = []
            for r in index.by_head[a]:
                if unmet[r]:
                    continue  # an underivable positive atom: the rule is dead
                lits = body[r]
                if not lits:
                    cnf.add_unit(v)
                    break
                reps.append(lits[0] if len(lits) == 1 else cnf.define_and(lits))
            else:
                cnf.add_iff_or(v, reps)

    def models(self, limit: Optional[int] = None) -> Iterator[Dict[int, bool]]:
        """The models projected onto :attr:`variables`, one per fixpoint
        (the auxiliaries are functionally determined), at most ``limit``."""
        return islice(enumerate_models(self.cnf, self.variables), limit)

    def flags(self, model: Dict[int, bool]) -> np.ndarray:
        """The atom flags a model sets, over every atom id of the index."""
        flags = np.zeros(len(self.ground.index.by_head), dtype=bool)
        flags[self.atoms] = [model[v] for v in self.variables]
        return flags

    def decode(self, model: Dict[int, bool]) -> IDBMap:
        """A solver model as a ``{pred: Relation}`` valuation, in codes."""
        return self.ground.index.codes.valuation(self.program, self.flags(model))


# ----------------------------------------------------------------------
# Decision procedures
# ----------------------------------------------------------------------


def has_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> bool:
    """Does ``(program, db)`` have any fixpoint?  (One NP-oracle call.)"""
    return has_model(FixpointSAT(program, db, ground).cnf)


def find_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> Optional[IDBMap]:
    """Some fixpoint of ``(program, db)``, or ``None``."""
    return next(enumerate_fixpoints_sat(program, db, 1, ground), None)


def enumerate_fixpoints_sat(
    program: Program,
    db: Database,
    limit: Optional[int] = None,
    ground: Optional[GroundProgram] = None,
) -> Iterator[IDBMap]:
    """Yield every fixpoint via blocking-clause enumeration
    (:meth:`FixpointSAT.models`); when ``limit`` is given, stops after
    that many."""
    enc = FixpointSAT(program, db, ground)
    return map(enc.decode, enc.models(limit))


def count_fixpoints_sat(
    program: Program,
    db: Database,
    limit: Optional[int] = None,
    ground: Optional[GroundProgram] = None,
) -> int:
    """The number of fixpoints (up to ``limit`` when given)."""
    return sum(1 for _ in FixpointSAT(program, db, ground).models(limit))


def unique_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> Optional[IDBMap]:
    """The unique fixpoint if exactly one exists, else ``None``.

    This is the paper's pi-UNIQUE-FIXPOINT decision (Theorem 2), realised
    with two oracle calls: find one model, block it, ask again.
    """
    enc = FixpointSAT(program, db, ground)
    model = unique_model(enc.cnf, enc.variables)
    return None if model is None else enc.decode(model)


def has_unique_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> bool:
    """Does ``(program, db)`` have exactly one fixpoint?"""
    return unique_fixpoint(program, db, ground) is not None


@dataclass
class LeastFixpointReport:
    """Outcome of the Theorem 3 least-fixpoint procedure.

    Attributes
    ----------
    exists:
        Whether any fixpoint exists at all.
    intersection:
        Coordinatewise intersection of all fixpoints (``None`` when no
        fixpoint exists).
    least:
        The least fixpoint — equal to ``intersection`` when that set is
        itself a fixpoint, else ``None``.
    oracle_calls:
        Number of SAT queries spent (1 + one per derivable atom, in the
        worst case) — the "polynomially many NP oracle calls" of the
        Delta_2^p upper bound.
    """

    exists: bool
    intersection: Optional[IDBMap]
    least: Optional[IDBMap]
    oracle_calls: int

    @property
    def least_exists(self) -> bool:
        """Whether a least fixpoint exists."""
        return self.least is not None


def least_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> LeastFixpointReport:
    """Decide least-fixpoint existence via intersection-of-all-fixpoints.

    Implements the observation in the proof of Theorem 3: *"given a
    database D, the program (pi, D) has a least fixpoint if and only if the
    (coordinatewise) intersection of all fixpoints is a fixpoint."*  Atom
    membership in the intersection is a backbone query: ``a`` is in every
    fixpoint iff ``CNF and not a`` is unsatisfiable.
    """
    return _least_fixpoint(FixpointSAT(program, db, ground))


def _least_fixpoint(enc: FixpointSAT) -> LeastFixpointReport:
    solver = Solver(enc.cnf)
    base = solver.solve()
    if base is None:
        return LeastFixpointReport(
            exists=False, intersection=None, least=None, oracle_calls=1
        )
    # An atom some fixpoint (the first) excludes costs no call.
    inside = {v: base[v] and solver.solve(assumptions=(-v,)) is None for v in enc.variables}
    intersection = enc.decode(inside)
    return LeastFixpointReport(
        exists=True,
        intersection=intersection,
        least=intersection if enc.ground.index.is_fixpoint(enc.flags(inside)) else None,
        oracle_calls=1 + sum(base[v] for v in enc.variables),
    )


@dataclass
class FixpointAnalysis:
    """One-stop summary of the fixpoint structure of ``(program, db)``."""

    exists: bool
    unique: bool
    count: Optional[int]
    least_exists: bool
    least: Optional[IDBMap]
    sample: Optional[IDBMap]

    def __repr__(self) -> str:
        return (
            "FixpointAnalysis(exists=%s, unique=%s, count=%s, least_exists=%s)"
            % (self.exists, self.unique, self.count, self.least_exists)
        )


def analyze_fixpoints(
    program: Program,
    db: Database,
    count_limit: Optional[int] = 10_000,
    ground: Optional[GroundProgram] = None,
) -> FixpointAnalysis:
    """Run the full battery: existence, uniqueness, count, least fixpoint.

    ``count`` is ``None`` when more than ``count_limit`` fixpoints exist.
    """
    enc = FixpointSAT(program, db, ground)
    models = enc.models()
    first = next(models, None)
    if first is None:
        return FixpointAnalysis(
            exists=False,
            unique=False,
            count=0,
            least_exists=False,
            least=None,
            sample=None,
        )
    count: Optional[int] = 1 + sum(1 for _ in islice(models, count_limit))
    if count_limit is not None and count > count_limit:
        count = None
    report = _least_fixpoint(enc)
    return FixpointAnalysis(
        exists=True,
        unique=(count == 1),
        count=count,
        least_exists=report.least_exists,
        least=report.least,
        sample=enc.decode(first),
    )
