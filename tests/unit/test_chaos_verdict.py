"""The chaos verdict's chain audit re-validates every block it replays.

Live chains hold the ledgers of every prefix they retain, so a replay
that trusted those shared entries would only re-check linkage and hashes.
A block that entered a chain without validation must still fail the
audit, on an unpruned chain (replayed from genesis) and on a pruned one
(replayed from its anchor).
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.chaos.verdict import _chain_replays
from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import ConsensusError
from tests.helpers import mine_next

NODE_IDS = list(range(4))
ACCOUNTS = {i: Account.for_node(31, i) for i in NODE_IDS}
ADDRESS_OF = {i: account.address for i, account in ACCOUNTS.items()}
CONFIG = SystemConfig(expected_block_interval=10.0, recent_cache_capacity=2)
PRUNING_CONFIG = replace(
    CONFIG,
    checkpoint_interval=2,
    checkpoint_lag=1,
    lifecycle=LifecycleSpec(retain_blocks=3),
)


def _grow(chain, count, start=0):
    for sequence in range(start, start + count):
        chain.append_block(
            mine_next(chain, ACCOUNTS, sequence % len(NODE_IDS), storing=(1,))
        )
        chain.maybe_prune()


@pytest.mark.parametrize("config", [CONFIG, PRUNING_CONFIG], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("forged", [False, True], ids=["honest", "forged"])
def test_replay_flags_a_block_that_skipped_validation(config, forged):
    chain = Blockchain(NODE_IDS, config, ADDRESS_OF)
    _grow(chain, 8)
    block = mine_next(chain, ACCOUNTS, 2, storing=(3,))
    if forged:
        # Hash-valid, linked, right roster — but the recorded B is wrong.
        block = replace(block, target_b=block.target_b * 3, current_hash="")
        assert block.hash_is_valid()
        with pytest.raises(ConsensusError):
            chain.validate_child(block)
    # Straight onto the chain, as an append path that skipped validation would.
    chain._extend(block, chain._ledgers_key(block), None)
    _grow(chain, 1, start=9)
    if config.lifecycle is not None:
        assert 0 < chain.first_retained_index < block.index
    node = SimpleNamespace(chain=chain, config=config)
    assert _chain_replays(node) is not forged
