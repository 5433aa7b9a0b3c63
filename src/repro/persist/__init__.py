"""Durable persistence: run journal, SQLite chain store, resume by replay.

The paper's edge nodes churn, disconnect, and recover (Sections IV-C and
IV-D); this package gives the *simulator itself* the same resilience.  A
durable run directory holds three artefacts:

* ``journal.jsonl`` — append-only, CRC-checked write-ahead journal of
  the reference chain's blocks and reorgs (:mod:`repro.persist.journal`);
* ``chain.sqlite`` — indexed, queryable chain/metadata/account store
  (:mod:`repro.persist.chainstore`);
* ``manifest.json`` / ``metrics.json`` — run identity and final results
  (:mod:`repro.persist.resume`).

A run is resumed by replaying its spec from genesis, checked against the
journal, so no runtime state is ever written to disk.  ``repro run
--persist DIR`` and ``repro resume DIR`` are the CLI faces;
:func:`run_persistent` / :func:`resume_run` the library ones.
"""

from repro.persist.chainstore import ChainStore, STORE_SCHEMA_VERSION
from repro.persist.journal import (
    JournalRecord,
    JournalRecovery,
    RunJournal,
    recover_journal,
)
from repro.persist.resume import (
    PersistConfig,
    PersistentRunResult,
    RunReport,
    inspect_run,
    resume_run,
    run_persistent,
)

__all__ = [
    "ChainStore",
    "STORE_SCHEMA_VERSION",
    "JournalRecord",
    "JournalRecovery",
    "RunJournal",
    "recover_journal",
    "PersistConfig",
    "PersistentRunResult",
    "RunReport",
    "inspect_run",
    "resume_run",
    "run_persistent",
]
