"""Performance micro-benchmarks of the substrates.

Not paper figures — these keep the simulator's hot paths honest: event
throughput, broadcast dissemination, hop-matrix computation, PoS hit
derivation, and block validation, all at the paper's 50-node scale, plus
the ECDSA layer (keygen / sign / verify) one operation at a time.
"""

from __future__ import annotations

from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.block import Block
from repro.crypto.keys import generate_keypair
from repro.crypto.signature import sign, verify
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Topology, connected_random_positions
from repro.simnet.transport import Network


def test_bench_event_engine_throughput(benchmark):
    def run_10k_events():
        engine = EventEngine(seed=0)
        counter = []
        for i in range(10_000):
            engine.schedule(float(i % 100), counter.append, i)
        engine.run()
        return len(counter)

    assert benchmark(run_10k_events) == 10_000


def test_bench_broadcast_50_nodes(benchmark):
    engine = EventEngine(seed=1)
    topology = Topology(connected_random_positions(50, engine.np_rng))
    network = Network(engine, topology, ChannelModel())
    for node in range(50):
        network.register(node, lambda *a: None)

    def broadcast_and_drain():
        reached = network.broadcast(0, "block", 10_000, "bench")
        engine.run()
        return reached

    assert benchmark(broadcast_and_drain) == 49


def test_bench_hop_matrix_50_nodes(benchmark):
    engine = EventEngine(seed=2)
    positions = connected_random_positions(50, engine.np_rng)

    def rebuild_and_compute():
        topology = Topology(positions)
        return topology.hop_matrix()

    matrix = benchmark(rebuild_and_compute)
    assert matrix.shape == (50, 50)


def test_bench_pos_hit_round_50_nodes(benchmark):
    """One full mining round: every node derives its hit and delay."""
    addresses = [Account.for_node(3, i).address for i in range(50)]
    modulus = 2**64

    def round_of_hits():
        delays = []
        for address in addresses:
            hit = compute_hit("previous-pos-hash", address, modulus)
            delays.append(mining_delay(hit, 2.0, 5.0, 1e12))
        return min(delays)

    assert benchmark(round_of_hits) >= 1


def test_bench_block_validation(benchmark):
    config = SystemConfig()
    accounts = {i: Account.for_node(4, i) for i in range(20)}
    address_of = {i: a.address for i, a in accounts.items()}
    chain = Blockchain(list(range(20)), config, address_of)
    parent = chain.tip
    miner = 7
    address = accounts[miner].address
    hit = compute_hit(parent.pos_hash, address, config.hit_modulus)
    amendment = chain.state.amendment(parent.timestamp)
    delay = mining_delay(hit, 1.0, 1.0, amendment)
    block = Block(
        index=1,
        timestamp=parent.timestamp + delay,
        previous_hash=parent.current_hash,
        pos_hash=compute_pos_hash(parent.pos_hash, address),
        miner=miner,
        miner_address=address,
        hit=hit,
        target_b=amendment,
        storing_nodes=(miner,),
    )

    benchmark(lambda: chain.validate_child(block))


def test_bench_ecdsa_keygen(benchmark):
    """One seeded keypair: a hash plus one fixed-base multiplication."""
    _, public = benchmark(lambda: generate_keypair(seed=("bench-ecdsa", 0)))
    assert len(public.encode()) == 33


def test_bench_ecdsa_sign(benchmark):
    private, public = generate_keypair(seed=("bench-ecdsa", 0))
    message = b"metadata item: producer 7, sequence 42"
    signature = benchmark(lambda: sign(private, message))
    assert verify(public, message, signature)


def test_bench_ecdsa_verify(benchmark):
    """``u1·G + u2·Q``: a 256-bit ladder, the table walk, one inversion."""
    private, public = generate_keypair(seed=("bench-ecdsa", 0))
    message = b"metadata item: producer 7, sequence 42"
    signature = sign(private, message)
    assert benchmark(lambda: verify(public, message, signature))
