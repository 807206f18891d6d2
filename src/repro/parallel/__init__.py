"""Sharded well-founded evaluation across forked worker processes.

One engine shards: ``well_founded_semantics(program, db, parallel=N)``
ships ``(program, db)`` to a pool of ``N`` workers, each of which sweeps
its slice of the ground rules and unions what it derived with the others
at every barrier (:mod:`repro.parallel.wellfounded`).  It runs far slower
than the sequential engine and is kept only as the measurement the
end-to-end benchmark pins; nothing outside this package imports it
except that lazy call.  :mod:`repro.parallel.pool` owns the workers and
the barrier hub, :mod:`repro.parallel.ship` the code-buffer wire format.
"""
