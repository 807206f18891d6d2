"""Materialized-view maintenance: fixpoints kept live under EDB deltas.

The paper defines its semantics by *iterating to a fixpoint from
scratch*; a serving system cannot afford that on every base-fact
change.  This package turns the batch evaluator into a serving engine:

* :class:`~repro.materialize.delta.Delta` — per-relation insert/delete
  sets, applied with :meth:`repro.db.database.Database.apply_delta`;
* :mod:`~repro.materialize.deltavariants` — the telescoping delta
  variants counting differentiates rules into, DRed's one-state flips,
  and
  :class:`~repro.materialize.deltavariants.AliasSet`, which names the
  values they read: each input's post-change value under its own name,
  and ``@old``/``@ins``/``@del`` aliases — names for values an update
  has already computed, never copies evolved beside them;
* :mod:`~repro.materialize.counting` — exact derivation counting for
  non-recursive predicates, and for the ground program itself;
* :mod:`~repro.materialize.dred` — Delete/Rederive for recursive
  components under stratified negation, as two runs of
  :func:`~repro.core.fixpoint.iterate`;
* :mod:`~repro.materialize.wellfounded_maint` — well-founded views: the
  ground program kept live as counted views
  (:class:`~repro.materialize.wellfounded_maint.LiveGroundProgram`), and
  the three-valued model kept as one live ``(true, possible)`` pair over
  it, moved below the new model by an over-deletion
  and finished by the batch engine's resume loop, which opens live views
  to the *non-stratifiable* programs (win–move, odd cycles) the paper's
  fixpoint pathology section is about;
* :class:`~repro.materialize.view.MaterializedView` — the façade over
  one maintenance state per view (the condensation walk of counting and
  DRed, the alternating pair, or a recompute), each of whose ``apply``
  returns the changes it made: ``view.apply(delta)`` returns them at
  once as a changeset — itself a
  :class:`~repro.materialize.delta.Delta`, keyed by every relation that
  moved — and ``view.result`` folds them on read, equal to a from-scratch
  recomputation
  (property-tested in ``tests/test_materialize.py`` and
  ``tests/test_wellfounded_maintain.py``).  Batching and transactions:
  ``view.apply_many(deltas)`` folds a batch through the
  :meth:`~repro.materialize.delta.Delta.then` monoid into one
  maintenance pass, and ``view.rollback(n)`` unwinds the undo log of
  composed effective inverses.

Maintenance runs stratum-by-stratum over the dependency condensation —
the algorithmic counterpart of the stratified fixed-point structure
non-monotone operators force (deletion is where non-monotonicity bites:
retracting an EDB tuple can *grow* a negated stratum).  The well-founded
path has no strata to lean on; it moves in the precision order instead:
an update only ever sends atoms to *undefined*, and the alternation
decides them again.
"""

from .counting import CountingState
from .delta import Delta
from .dred import RecursiveState
from .view import MaterializedView
from .wellfounded_maint import AlternatingState, undef_name

__all__ = [
    "AlternatingState",
    "CountingState",
    "Delta",
    "MaterializedView",
    "RecursiveState",
    "undef_name",
]
