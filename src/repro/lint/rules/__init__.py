"""Rule modules; importing this package registers every rule.

One module per hazard family, mirroring the bug classes this codebase has
actually hit (PR 1's ``id()``-recycling cache bug) or is structurally
exposed to (pool workers, seeded-stream discipline):

* :mod:`repro.lint.rules.rng` — D001 stdlib ``random``, D002 ``np.random``
* :mod:`repro.lint.rules.wallclock` — D003 wall-clock reads
* :mod:`repro.lint.rules.identity` — D004 ``id()`` keys/membership
* :mod:`repro.lint.rules.ordering` — D005 unordered iteration -> ordered output
* :mod:`repro.lint.rules.defaults` — D006 mutable default arguments
* :mod:`repro.lint.rules.concurrency` — D007 module state written from pool workers
* :mod:`repro.lint.rules.errors` — D008 swallowed exceptions
* :mod:`repro.lint.rules.retry` — D009 retry discipline (unbounded loops,
  wall-clock backoff)
* :mod:`repro.lint.rules.atomicio` — D011 raw write-mode ``open()``
  instead of the crash-safe ``atomic_write``
"""

from repro.lint.rules import (  # noqa: F401
    atomicio,
    concurrency,
    defaults,
    errors,
    identity,
    ordering,
    retry,
    rng,
    wallclock,
)
