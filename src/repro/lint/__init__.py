"""repro.lint — runtime simulation-correctness checks.

Two checks that need a running simulation, so they are not static
rules (those live in :mod:`repro.analyze`):

* :mod:`repro.lint.sanitizer` — :class:`SimSanitizer`, an opt-in runtime
  invariant checker hooked into the event loop;
* :mod:`repro.lint.determinism` — the twice-run same-seed digest check
  (``repro-analyze determinism``).

See ``docs/lint.md``.
"""

from .determinism import (
    DeterminismReport,
    RunDigest,
    check_all,
    check_system,
    digest_run,
)
from .sanitizer import SimSanitizer

__all__ = [
    "SimSanitizer",
    "DeterminismReport",
    "RunDigest",
    "digest_run",
    "check_system",
    "check_all",
]
