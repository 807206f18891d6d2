"""Fixpoint analysis through SAT — the paper's NP machinery, executable.

Section 3 opens with the NP membership argument: *"One has to guess
relations of size n^s ... and verify (also in time n^s) that the relations
guessed indeed constitute a fixpoint."*  This module compiles that
guess-and-verify step into CNF: after grounding, ``S`` is a fixpoint of
``(pi, D)`` iff for every derivable ground atom ``h``

    h in S   <->   OR over ground rules r for h of
                   ( AND_{p in pos(r)} p in S  AND  AND_{n in neg(r)} n not in S )

and every underivable atom is out of ``S``.  Models of the CNF are exactly
the fixpoints, so the built-in DPLL solver decides:

* **existence**   (Theorem 1's object of study) — one SAT call;
* **uniqueness**  (Theorem 2, the US-complete problem) — two SAT calls;
* **leastness**   (Theorem 3) — via the paper's characterisation: a least
  fixpoint exists iff the intersection of *all* fixpoints is itself a
  fixpoint.  The intersection is computed with polynomially many oracle
  calls (a backbone computation), matching the FO(NP)/Delta_2^p upper
  bound's flavour;
* **counting/enumeration** — blocking-clause AllSAT, cross-checked against
  brute-force enumeration in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..db.database import Database
from ..sat.cnf import CNF
from ..sat.solver import Solver
from .grounding import GroundAtom, GroundProgram, ground_program, to_idb_map
from .operator import IDBMap
from .program import Program


class FixpointSAT:
    """The CNF encoding of ``Theta(S) = S`` for one ``(program, db)`` pair.

    Attributes
    ----------
    cnf:
        The compiled formula; one labelled variable per derivable atom,
        plus anonymous Tseitin auxiliaries for multi-literal rule bodies.
    atom_var:
        Map from derivable ground atoms to their CNF variables.
    """

    def __init__(
        self, program: Program, db: Database, ground: Optional[GroundProgram] = None
    ) -> None:
        self.program = program
        self.db = db
        self.ground = ground if ground is not None else ground_program(program, db)
        self.cnf = CNF()
        self.atom_var: Dict[GroundAtom, int] = {}
        self._build()

    def _build(self) -> None:
        derivable = self.ground.derivable
        for atom in sorted(derivable):
            self.atom_var[atom] = self.cnf.pool.var(atom)
        for atom in sorted(derivable):
            head_var = self.atom_var[atom]
            body_reps: List[int] = []
            forced_true = False
            for rule in self.ground.by_head[atom]:
                lits: List[int] = []
                dead = False
                for p in rule.pos:
                    if p in self.atom_var:
                        lits.append(self.atom_var[p])
                    else:
                        dead = True  # positive literal can never hold
                        break
                if dead:
                    continue
                for n in rule.neg:
                    if n in self.atom_var:
                        lits.append(-self.atom_var[n])
                    # underivable negated atoms are vacuously satisfied
                if not lits:
                    forced_true = True
                    break
                if len(lits) == 1:
                    body_reps.append(lits[0])
                else:
                    body_reps.append(self.cnf.define_and(lits))
            if forced_true:
                self.cnf.add_unit(head_var)
            else:
                self.cnf.add_iff_or(head_var, body_reps)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, model: Dict[int, bool]) -> Set[GroundAtom]:
        """Ground atoms set true by a solver model."""
        return {atom for atom, var in self.atom_var.items() if model.get(var)}

    def decode_idb(self, model: Dict[int, bool]) -> IDBMap:
        """A solver model as a ``{pred: Relation}`` valuation."""
        return to_idb_map(self.ground.program, self.decode(model))

    @property
    def atom_vars(self) -> List[int]:
        """The labelled (non-auxiliary) variables, in atom order."""
        return [self.atom_var[a] for a in sorted(self.atom_var)]


# ----------------------------------------------------------------------
# Decision procedures
# ----------------------------------------------------------------------


def has_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> bool:
    """Does ``(program, db)`` have any fixpoint?  (One NP-oracle call.)"""
    return find_fixpoint(program, db, ground) is not None


def find_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> Optional[IDBMap]:
    """Some fixpoint of ``(program, db)``, or ``None``."""
    enc = FixpointSAT(program, db, ground)
    model = Solver(enc.cnf).solve()
    if model is None:
        return None
    return enc.decode_idb(model)


def enumerate_fixpoints_sat(
    program: Program,
    db: Database,
    limit: Optional[int] = None,
    ground: Optional[GroundProgram] = None,
) -> Iterator[IDBMap]:
    """Yield every fixpoint via blocking-clause enumeration.

    The blocking clauses range over atom variables only; Tseitin
    auxiliaries are functionally determined, so each fixpoint appears
    exactly once.  When ``limit`` is given, stops after that many.
    """
    enc = FixpointSAT(program, db, ground)
    solver = Solver(enc.cnf)
    variables = enc.atom_vars
    produced = 0
    while limit is None or produced < limit:
        model = solver.solve()
        if model is None:
            return
        yield enc.decode_idb(model)
        produced += 1
        if not variables:
            return
        solver.add_clause(tuple(-v if model[v] else v for v in variables))


def count_fixpoints_sat(
    program: Program,
    db: Database,
    limit: Optional[int] = None,
    ground: Optional[GroundProgram] = None,
) -> int:
    """The number of fixpoints (up to ``limit`` when given)."""
    return sum(1 for _ in enumerate_fixpoints_sat(program, db, limit, ground))


def unique_fixpoint(
    program: Program, db: Database, ground: Optional[GroundProgram] = None
) -> Optional[IDBMap]:
    """The unique fixpoint if exactly one exists, else ``None``.

    This is the paper's pi-UNIQUE-FIXPOINT decision (Theorem 2), realised
    with two oracle calls: find one model, block it, ask again.
    """
    enc = FixpointSAT(program, db, ground)
    solver = Solver(enc.cnf)
    first = solver.solve()
    if first is None:
        return None
    variables = enc.atom_vars
    if variables:
        solver.add_clause(tuple(-v if first[v] else v for v in variables))
        if solver.solve() is not None:
            return None
    return enc.decode_idb(first)


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
    gp = ground if ground is not None else ground_program(program, db)
    enc = FixpointSAT(program, db, gp)
    solver = Solver(enc.cnf)
    calls = 1
    base = solver.solve()
    if base is None:
        return LeastFixpointReport(
            exists=False, intersection=None, least=None, oracle_calls=calls
        )
    intersection_atoms: Set[GroundAtom] = set()
    for atom, var in sorted(enc.atom_var.items()):
        if not base[var]:
            continue  # some fixpoint already excludes it
        calls += 1
        without = solver.solve(assumptions=(-var,))
        if without is None:
            intersection_atoms.add(atom)
    intersection = to_idb_map(gp.program, intersection_atoms)
    least = intersection if gp.is_fixpoint(intersection_atoms) else None
    return LeastFixpointReport(
        exists=True,
        intersection=intersection,
        least=least,
        oracle_calls=calls,
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
    gp = ground if ground is not None else ground_program(program, db)
    sample = find_fixpoint(program, db, gp)
    if sample is None:
        return FixpointAnalysis(
            exists=False,
            unique=False,
            count=0,
            least_exists=False,
            least=None,
            sample=None,
        )
    count: Optional[int] = 0
    for _ in enumerate_fixpoints_sat(program, db, None, gp):
        count += 1
        if count_limit is not None and count > count_limit:
            count = None
            break
    report = least_fixpoint(program, db, gp)
    return FixpointAnalysis(
        exists=True,
        unique=(count == 1),
        count=count,
        least_exists=report.least_exists,
        least=report.least,
        sample=sample,
    )
