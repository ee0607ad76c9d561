"""Content-addressed result cache: re-evaluation in O(changed points).

Every figure, sweep point, and ablation in this repo is a deterministic
function of (factory import path, kwargs, explicit seed) and of the
``repro.*`` sources that run imports -- so its result can be cached by
content and reused until either the inputs or the code change, the same
way rFaaS leases keep executors warm instead of paying cold starts
twice.  See docs/architecture.md, "Result cache & incremental
evaluation".

* :mod:`repro.cache.fingerprint` -- canonical spec keys + transitive
  source-closure code fingerprints (memoized per process);
* :mod:`repro.cache.store` -- atomic, versioned, corruption-tolerant
  on-disk artifacts with a JSON index and an LRU size cap;
* :mod:`repro.cache.verify` -- re-run sampled entries and diff against
  the store to prove bit-identical determinism.

The engine integration lives in :func:`repro.parallel.run_specs`
(``cache=`` parameter); the CLI surface is ``python -m
repro.experiments ... --cache`` and the ``cache stats|clear|verify``
subcommands.
"""

from repro.cache.fingerprint import (
    KEY_SCHEMA,
    Uncacheable,
    canonical,
    clear_memo,
    code_fingerprint,
    source_closure,
    spec_key,
)
from repro.cache.store import (
    CACHE_DIR_ENV,
    DEFAULT_MAX_BYTES,
    STORE_SCHEMA,
    ResultCache,
    default_cache_dir,
)
from repro.cache.verify import VerifyReport, semantic_projection, verify_cache

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_MAX_BYTES",
    "KEY_SCHEMA",
    "STORE_SCHEMA",
    "ResultCache",
    "Uncacheable",
    "VerifyReport",
    "canonical",
    "clear_memo",
    "code_fingerprint",
    "default_cache_dir",
    "semantic_projection",
    "source_closure",
    "spec_key",
    "verify_cache",
]
