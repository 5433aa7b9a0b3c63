"""Per-layer metric catalogue: names, units, and how each is derived.

Every layer of :data:`bench.tracer.LAYERS` reports ``<layer>.self_s``
(span time minus child spans, timed region) and ``<layer>.calls``
(crossings into the layer, timed region).  The extra metrics below are
either call counts of named functions, taken from the tracer, or values
the workload reads off the finished run through public attributes.
``BENCHMARK.json``'s ``per_layer`` list is exactly :func:`catalogue`;
``test_smoke.py`` holds the two together.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracer import LAYER_NAMES, Tracer

_P = "repro."

#: metric → (function labels whose calls are summed, phase counted).
#: "both" = set-up + timed region (key generation happens at set-up).
CALL_COUNTS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "facility.placements": ((_P + "core.allocation.AllocationEngine.place_item",), "timed"),
    "crypto.keygens": ((_P + "crypto.keys.generate_keypair",), "both"),
    "crypto.signs": ((_P + "crypto.signature.sign",), "timed"),
    "crypto.verifies": ((_P + "crypto.signature.verify",), "timed"),
    "crypto.hash_calls": (
        (
            _P + "crypto.hashing.sha256",
            _P + "crypto.hashing.sha256_hex",
            _P + "crypto.hashing.hash_items",
            _P + "crypto.hashing.combine_hex",
        ),
        "timed",
    ),
    "core.blockchain.blocks_validated": (
        (_P + "core.blockchain.Blockchain.validate_child",),
        "timed",
    ),
    "core.blockchain.blocks_applied": (
        (_P + "core.blockchain.ChainState.apply_block",),
        "timed",
    ),
    "core.node.items_produced": ((_P + "core.node.EdgeNode.produce_data",), "timed"),
    "core.node.requests": ((_P + "core.node.EdgeNode.request_data",), "timed"),
    "core.pos.hit_calls": (
        (_P + "core.pos.compute_hit", _P + "core.pos.compute_hits"),
        "timed",
    ),
    "core.serialization.blocks_out": ((_P + "core.serialization.block_to_dict",), "timed"),
    "core.serialization.blocks_in": ((_P + "core.serialization.block_from_dict",), "timed"),
    "simnet.topology.hop_matrix_calls": (
        (_P + "simnet.topology.Topology.hop_matrix",),
        "timed",
    ),
    "simnet.topology.position_updates": (
        (_P + "simnet.topology.Topology.update_positions",),
        "timed",
    ),
    "persist.journal_appends": ((_P + "persist.journal.RunJournal.append",), "timed"),
    "persist.journal_syncs": ((_P + "persist.journal.RunJournal.sync",), "timed"),
    "persist.store_puts": ((_P + "persist.chainstore.ChainStore.put_block",), "timed"),
    "persist.store_gets": ((_P + "persist.chainstore.ChainStore.block_by_index",), "timed"),
    "lifecycle.compactions": ((_P + "persist.chainstore.ChainStore.compact",), "timed"),
    "lifecycle.blocks_archived": ((_P + "lifecycle.archive.BlockArchive.append",), "timed"),
    "lifecycle.range_fetches": ((_P + "lifecycle.archive.BlockArchive.fetch_range",), "timed"),
    "sim.events_scheduled": (
        (
            _P + "simnet.engine.EventEngine.call_at",
            _P + "simnet.engine.EventEngine.call_at_batch",
        ),
        "setup",
    ),
}

#: Counts of useful work done (more is better); every other count is a cost.
USEFUL_WORK = {"core.node.items_produced", "core.node.requests"}

#: Layers whose set-up self time is worth a metric of its own.
SETUP_LAYERS = ("crypto", "simnet.topology", "net", "sim")

#: Values each workload reads off its finished run (zero where the layer
#: does not run).  name → (unit, better).
RUN_VALUES: Dict[str, Tuple[str, str]] = {
    "facility.fallbacks": ("count", "lower"),
    "facility.storage_gini": ("ratio", "lower"),
    "core.node.delivery_p50_sim_s": ("sim_s", "lower"),
    "core.node.delivery_tail_sim_s": ("sim_s", "lower"),
    "core.node.delivery_samples": ("count", "higher"),
    "core.node.failed_requests": ("count", "lower"),
    "core.blockchain.replay_us_per_block": ("us", "lower"),
    "simnet.engine.events": ("count", "lower"),
    "simnet.transport.msgs": ("count", "lower"),
    "simnet.transport.bytes": ("B", "lower"),
    "simnet.transport.dropped": ("count", "lower"),
    "simnet.transport.tx_mb_per_node": ("MB", "lower"),
    "persist.cache_hit_ratio": ("ratio", "higher"),
    "persist.blocks_per_s": ("blocks/s", "higher"),
    "persist.recover_s": ("s", "lower"),
    "persist.read_blocks_per_s": ("blocks/s", "higher"),
    "net.frames_encoded": ("count", "lower"),
    "net.frames_decoded": ("count", "lower"),
    "net.bytes": ("B", "lower"),
    "net.frames_rejected": ("count", "lower"),
    "net.reconnects": ("count", "lower"),
}

#: Ratios of a time to a count: name → (unit, seconds→unit factor).
_RATIOS: Dict[str, Tuple[str, float]] = {
    "facility.ms_per_placement": ("ms", 1e3),
    "crypto.ms_per_sign": ("ms", 1e3),
    "core.blockchain.us_per_apply": ("us", 1e6),
    "simnet.engine.us_per_event": ("us", 1e6),
    "persist.us_per_put": ("us", 1e6),
    "lifecycle.ms_per_compaction": ("ms", 1e3),
    "net.us_per_frame": ("us", 1e6),
}

_TRACE = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.unresolved": ("count", "lower"),
    "trace.spans": ("count", "lower"),
}


def catalogue() -> List[Dict[str, str]]:
    """Every per-layer metric as ``BENCHMARK.json`` lists it."""
    entries: List[Dict[str, str]] = []

    def add(name: str, unit: str, better: str) -> None:
        entries.append({"name": name, "unit": unit, "better": better})

    for layer in LAYER_NAMES:
        add(f"{layer}.self_s", "s", "lower")
        add(f"{layer}.calls", "count", "lower")
    for layer in SETUP_LAYERS:
        add(f"{layer}.setup_self_s", "s", "lower")
    for name in CALL_COUNTS:
        add(name, "count", "higher" if name in USEFUL_WORK else "lower")
    for name, (unit, _) in _RATIOS.items():
        add(name, unit, "lower")
    for name, (unit, better) in RUN_VALUES.items():
        add(name, unit, better)
    for name, (unit, better) in _TRACE.items():
        add(name, unit, better)
    return entries


def _per(seconds: float, count: float, factor: float) -> float:
    return seconds / count * factor if count else 0.0


def per_layer_values(
    tracer: Tracer, run_values: Dict[str, float]
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metric values of one traced run, plus what is unresolved.

    ``trace.overhead_ratio`` needs the untraced run too: the caller that
    has both fills it in.
    """
    unresolved = list(tracer.unresolved)
    values: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = tracer.self_s(layer)
        values[f"{layer}.calls"] = tracer.crossings(layer)
    for layer in SETUP_LAYERS:
        values[f"{layer}.setup_self_s"] = tracer.self_s(layer, "setup")
    for name, (labels, phase) in CALL_COUNTS.items():
        phases = ("setup", "timed") if phase == "both" else (phase,)
        total: Optional[int] = None
        for label in labels:
            for each in phases:
                calls = tracer.calls(label, each)
                if calls is not None:
                    total = (total or 0) + calls
        if total is None:
            unresolved.append(f"{name}: none of {labels} exists any more")
            total = 0
        values[name] = total
    missing = set(RUN_VALUES) - set(run_values)
    if missing:
        raise KeyError(f"workload did not report {sorted(missing)}")
    values.update({name: run_values[name] for name in RUN_VALUES})

    sign_s = tracer.inclusive_s(_P + "core.account.Account.sign") + tracer.inclusive_s(
        _P + "crypto.signature.sign"
    )
    put_s = tracer.inclusive_s(_P + "persist.chainstore.ChainStore.put_block")
    compact_s = tracer.inclusive_s(_P + "persist.chainstore.ChainStore.compact")
    frames = values["net.frames_encoded"] + values["net.frames_decoded"]
    ratios = {
        "facility.ms_per_placement": (tracer.self_s("facility"), values["facility.placements"]),
        "crypto.ms_per_sign": (sign_s, values["crypto.signs"]),
        "core.blockchain.us_per_apply": (
            tracer.self_s("core.blockchain"),
            values["core.blockchain.blocks_applied"],
        ),
        "simnet.engine.us_per_event": (
            tracer.self_s("simnet.engine"),
            values["simnet.engine.events"],
        ),
        "persist.us_per_put": (put_s, values["persist.store_puts"]),
        "lifecycle.ms_per_compaction": (compact_s, values["lifecycle.compactions"]),
        "net.us_per_frame": (tracer.self_s("net"), frames),
    }
    for name, (seconds, count) in ratios.items():
        values[name] = _per(seconds, count, _RATIOS[name][1])
    values["trace.unattributed_s"] = tracer.unattributed_s()
    values["trace.unresolved"] = len(unresolved)
    values["trace.spans"] = len(tracer.spans)
    return values, unresolved
