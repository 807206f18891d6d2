"""The live view server: ``MaterializedView`` as a long-lived service.

The ROADMAP's serving story, assembled from parts the earlier PRs
already made serving-shaped:

* **immutable databases** make snapshot-consistent reads free — a
  reader pins the current :class:`~repro.db.database.Database` value
  while the writer advances the view;
* **a single writer queue** (:mod:`repro.server.service`) folds
  concurrent deltas through :meth:`Delta.then
  <repro.materialize.delta.Delta.then>` into one
  :meth:`~repro.materialize.view.MaterializedView.apply_many`-equivalent
  maintenance pass per tick;
* **changesets are the wire payload** — subscribers stream the
  changeset of every committed batch, a
  :class:`~repro.materialize.delta.Delta` like the deltas that go in;
* **a write-ahead delta log** (:mod:`repro.server.wal`) persists every
  committed batch as one checksummed record — one write and one fsync
  before the ack — plus a periodic database snapshot, so a restarted
  server recovers by *replay* instead of recompute — which is exactly
  why the snapshots' CSV value round trip had to become the identity
  (see :mod:`repro.db.csvio`).

Front ends: :mod:`repro.server.net` speaks newline-delimited JSON over
asyncio TCP (``python -m repro serve``); :mod:`repro.server.smoke` is a
self-contained boot → load → kill → replay-equivalence check run by CI.
"""

from .service import ProgramRejected, ViewInfo, ViewServer
from .wal import DeltaLog, RecoveredState

__all__ = [
    "DeltaLog",
    "ProgramRejected",
    "RecoveredState",
    "ViewInfo",
    "ViewServer",
]
