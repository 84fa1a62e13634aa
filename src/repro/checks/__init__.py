"""``repro-lint``: contract-checking static analysis for this repository.

The simulator's correctness story rests on invariants that ordinary
linters cannot see because they span files, languages and subsystems:

* **determinism** — the simulation subtree (``core/``, ``engine/``,
  ``trace/``, ``backend/``, ``rename/``, ``pipeline/``) must draw every
  random number from an explicitly seeded generator and must never read
  wall-clock time or iterate over unordered sets;
* **cache-key completeness** — every ``ProcessorConfig`` field the
  engine reads must be covered by the sweep-cache key derivation in
  ``analysis/cache.py``, so a new config knob can never silently serve
  stale cache hits;
* **async-blocking** — ``async def`` bodies under ``serve/`` must never
  call blocking primitives (``time.sleep``, sync ``urllib``, file I/O,
  ``subprocess``) directly;
* **exception discipline** — ``except Exception`` handlers must log,
  re-raise or attach the caught exception to structured context, never
  swallow it silently.

The fuzzer (PR 8) catches violations of these contracts at runtime *if a
sample happens to hit them*; this package catches the whole class at
lint time.  Run it as ``repro-lint``, ``repro-experiments lint`` or
``python -m repro.checks``; the rule catalogue, the suppression syntax
(``# repro-lint: disable=<rule> -- reason``) and the baseline workflow
are documented in ``docs/static-analysis.md``.

The package is deliberately stdlib-only (``ast`` + text parsing): the CI
``lint-contracts`` job runs it without installing the simulator's
runtime dependencies.
"""

from repro.checks.base import (CHECKERS, Baseline, Checker, Finding, Project,
                               register, run_checks)

# Importing the checker modules populates the registry.
from repro.checks import (async_blocking, cache_key, determinism,  # noqa: E402
                          exceptions)

__all__ = ["CHECKERS", "Baseline", "Checker", "Finding", "Project",
           "register", "run_checks",
           "async_blocking", "cache_key", "determinism", "exceptions"]
