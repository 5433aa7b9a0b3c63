"""Unit tests for SystemConfig validation and protocol message sizing."""

import dataclasses
import math

import pytest

from repro.core.block import make_genesis
from repro.core.config import DATA_ITEM_BYTES, PAPER_CONFIG, SystemConfig
from repro.core.messages import (
    CONTROL_BYTES,
    BlockAnnounce,
    BlockRequest,
    BlockResponse,
    ChainRequest,
    ChainResponse,
    DataNack,
    DataRequest,
    DataResponse,
    DisseminationRequest,
    DisseminationResponse,
    MetadataAnnounce,
)
from repro.core.metadata import create_metadata


class TestSystemConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.field_size == 300.0
        assert PAPER_CONFIG.comm_range == 70.0
        assert PAPER_CONFIG.mobility_range == 30.0
        assert PAPER_CONFIG.storage_capacity == 250
        assert PAPER_CONFIG.expected_block_interval == 60.0
        assert PAPER_CONFIG.simulation_minutes == 500.0
        assert PAPER_CONFIG.hop_delay == 0.010
        assert PAPER_CONFIG.fdc_weight == 1000.0
        assert PAPER_CONFIG.requester_fraction == 0.10

    def test_data_item_is_one_megabyte(self):
        assert DATA_ITEM_BYTES == 1_000_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"field_size": 0},
            {"comm_range": -1},
            {"storage_capacity": 0},
            {"expected_block_interval": 0},
            {"hit_modulus": 1},
            {"requester_fraction": 1.5},
            {"placement_solver": "quantum"},
            # Retired run modes: bench/workloads.fast_solver_config relies
            # on exactly this failure to fall back to the default.
            {"placement_solver": "incremental"},
            {"placement_solver": "local_search"},
            {"placement_solver": "lp_rounding"},
            {"token_rescale_ratio": 0.0},
            {"token_rescale_interval": 0},
            {"initial_tokens": 0.5},
            {"mobility_range": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"fdc_weight": 1000.5}, "FDC weight must be a whole number"),
            ({"fdc_weight": 0.1}, "FDC weight must be a whole number"),
            (
                {"mobility_range": 30.5},
                "mobility range must be a whole number of metres",
            ),
            (
                {"mobility_range": math.inf},
                "mobility range must be a whole number of metres",
            ),
        ],
    )
    def test_non_integral_placement_inputs_rejected(self, kwargs, message):
        # Eq. 1–3 stay integers, so the placement is decided exactly.
        with pytest.raises(ValueError, match=f"^{message}$"):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("weight", [1, 10, 100, 1000, 10000])
    @pytest.mark.parametrize("mobility_range", [0, 30, 60])
    def test_integral_placement_inputs_accepted(self, weight, mobility_range):
        # The FDC-weight ablation's A and every range a config here uses.
        SystemConfig(fdc_weight=float(weight), mobility_range=float(mobility_range))

    def test_batch_deliveries_is_not_a_field(self):
        with pytest.raises(TypeError):
            dataclasses.replace(PAPER_CONFIG, batch_deliveries=False)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_CONFIG.field_size = 100.0  # type: ignore[misc]


class TestMessageSizes:
    def test_metadata_announce(self, account):
        item = create_metadata(account, 0, 0, 0.0)
        assert MetadataAnnounce(item).wire_size() == item.wire_size()

    def test_block_announce(self):
        genesis = make_genesis((0, 1), 1.0)
        assert BlockAnnounce(genesis).wire_size() == genesis.wire_size()

    def test_control_messages_are_small(self):
        assert DataRequest("d", 0, 1).wire_size() == CONTROL_BYTES
        assert DataNack("d", 1).wire_size() == CONTROL_BYTES
        assert DisseminationRequest("d", 0).wire_size() == CONTROL_BYTES
        assert ChainRequest(0).wire_size() == CONTROL_BYTES

    def test_data_response_carries_payload(self):
        response = DataResponse("d", 1, size_bytes=DATA_ITEM_BYTES)
        assert response.wire_size() == DATA_ITEM_BYTES + CONTROL_BYTES

    def test_dissemination_response_carries_payload(self):
        response = DisseminationResponse("d", size_bytes=500)
        assert response.wire_size() == 500 + CONTROL_BYTES

    def test_block_request_scales_with_indices(self):
        small = BlockRequest(indices=(1,), origin=0)
        large = BlockRequest(indices=tuple(range(10)), origin=0)
        assert large.wire_size() > small.wire_size()

    def test_block_response_scales_with_blocks(self):
        genesis = make_genesis((0, 1), 1.0)
        one = BlockResponse(blocks=(genesis,))
        two = BlockResponse(blocks=(genesis, genesis))
        assert two.wire_size() > one.wire_size()

    def test_chain_response_sums_blocks(self):
        genesis = make_genesis((0, 1), 1.0)
        response = ChainResponse(blocks=(genesis,))
        assert response.wire_size() == CONTROL_BYTES + genesis.wire_size()

    def test_block_request_default_ttl(self):
        assert BlockRequest(indices=(1,), origin=0).ttl == 3
