"""repro — Edge blockchain with fair resource allocation and PoS consensus.

A complete, from-scratch reproduction of "Resource Allocation and Consensus
on Edge Blockchain in Pervasive Edge Computing Environments" (ICDCS 2019):

* :mod:`repro.core` — the edge blockchain: metadata-in-block design,
  UFL-based fair/efficient storage allocation (FDC + RDC), recent-block
  caching, the new Proof-of-Stake mechanism, and the full protocol node.
* :mod:`repro.facility` — the UFL instance, the FDC/RDC costs and the
  two placement solvers (the greedy and the paper's random baseline).
* :mod:`repro.simnet` — deterministic discrete-event network simulator.
* :mod:`repro.energy` — calibrated battery/energy model (the Fig. 6 testbed).
* :mod:`repro.crypto` — SHA-256 / secp256k1 / Merkle substrate.
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.sim` — the
  evaluation harness reproducing every figure of Section VI.
* :mod:`repro.net` — the same protocol over real sockets (``repro live``).
* :mod:`repro.persist`, :mod:`repro.lifecycle` — durable runs, resume by
  replay, checkpoint-anchored pruning and the cold archive.
* :mod:`repro.obs` — spans, metrics, timeline, health monitors.
* :mod:`repro.chaos` — seeded Byzantine adversaries and the safety/liveness
  verdict ``repro reproduce``'s adversary claims read.

Quickstart::

    from repro.sim import ExperimentSpec, run_experiment
    from repro.core import PAPER_CONFIG

    result = run_experiment(
        ExperimentSpec(node_count=20, config=PAPER_CONFIG, seed=1,
                       duration_minutes=30)
    )
    print(result.metrics.average_delivery_time())
"""

__version__ = "1.0.0"

from repro.core import PAPER_CONFIG, EdgeNode, SystemConfig
from repro.sim import ExperimentSpec, build_cluster, run_experiment

__all__ = [
    "__version__",
    "SystemConfig",
    "PAPER_CONFIG",
    "EdgeNode",
    "ExperimentSpec",
    "run_experiment",
    "build_cluster",
]
