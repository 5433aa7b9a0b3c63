"""Seeded Byzantine adversaries and the safety/liveness verdict they face.

The paper's fault model is crash/churn (Section IV-C/D); this package
plants the *Byzantine* faults an open edge deployment must also survive
— equivocating miners, forged blocks, poisoned sync responses, tampered
metadata, request floods — and checks that the admission-hardened
protocol (see :mod:`repro.core.admission` and DESIGN.md §11) holds its
safety and liveness invariants under them.

* :mod:`repro.chaos.adversaries` — EdgeNode subclasses implementing each
  misbehavior, planted through either fabric's ``node_classes`` hook
  (simnet and live sockets);
* :mod:`repro.chaos.verdict` — the end-of-run safety/liveness verdict.

``repro reproduce`` plants each adversary at f < n/3 and gates the
verdicts as claims (:func:`repro.sim.scenarios.adversaries`).
"""

from repro.chaos.adversaries import (
    ADVERSARY_TYPES,
    EquivocatorNode,
    FlooderNode,
    InvalidBlockSpammerNode,
    MetadataTampererNode,
    SyncPoisonerNode,
)
from repro.chaos.verdict import compute_verdict

__all__ = [
    "ADVERSARY_TYPES",
    "EquivocatorNode",
    "FlooderNode",
    "InvalidBlockSpammerNode",
    "MetadataTampererNode",
    "SyncPoisonerNode",
    "compute_verdict",
]
