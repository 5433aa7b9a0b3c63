"""Unit tests for the reconnect backoff schedule and peer tunables."""

import asyncio
import random
import socket

import pytest

from repro.net.peer import (
    HandshakeInfo,
    PeerConfig,
    PeerManager,
    PeerState,
    reconnect_backoff,
)
from repro.net.wire import FrameDecoder


class TestReconnectBackoff:
    def test_jitter_free_schedule_doubles_to_cap(self):
        delays = [
            reconnect_backoff(a, base=0.05, cap=2.0, rng=None) for a in range(10)
        ]
        assert delays[:6] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        assert delays[6:] == [2.0, 2.0, 2.0, 2.0]

    def test_monotone_nondecreasing_without_jitter(self):
        delays = [reconnect_backoff(a, rng=None) for a in range(20)]
        assert all(a <= b for a, b in zip(delays, delays[1:]))

    def test_jitter_bounds(self):
        rng = random.Random(7)
        for attempt in range(12):
            delay = reconnect_backoff(
                attempt, base=0.05, cap=2.0, jitter=0.25, rng=rng
            )
            floor = min(2.0, 0.05 * 2.0 ** attempt)
            assert floor <= delay <= floor * 1.25 + 1e-12
            assert delay <= 2.0 * 1.25  # jittered cap

    def test_deterministic_for_seeded_rng(self):
        first = [reconnect_backoff(a, rng=random.Random(3)) for a in range(6)]
        second = [reconnect_backoff(a, rng=random.Random(3)) for a in range(6)]
        assert first == second

    def test_huge_attempt_does_not_overflow(self):
        assert reconnect_backoff(10_000, base=0.05, cap=2.0, rng=None) == 2.0

    def test_zero_jitter_with_rng_is_exact(self):
        delay = reconnect_backoff(3, base=0.1, cap=5.0, jitter=0.0,
                                  rng=random.Random(1))
        assert delay == pytest.approx(0.8)

    @pytest.mark.parametrize("kwargs", [
        {"attempt": -1},
        {"attempt": 0, "base": 0.0},
        {"attempt": 0, "cap": -1.0},
        {"attempt": 0, "jitter": 1.5},
        {"attempt": 0, "jitter": -0.1},
    ])
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            reconnect_backoff(**kwargs)


def test_peer_config_defaults_are_sane():
    config = PeerConfig()
    assert config.handshake_timeout > 0
    assert config.heartbeat_interval > 0
    assert config.heartbeat_misses >= 1
    assert config.send_queue_frames > 0
    assert config.reconnect_base < config.reconnect_cap


class TestDialAttemptSchedule:
    """The per-peer attempt counter drives the backoff and resets on handshake."""

    def _manager(self):
        config = PeerConfig(
            reconnect_base=0.05, reconnect_cap=2.0, reconnect_jitter=0.0
        )
        return PeerManager(
            node_id=0,
            genesis_digest="g",
            on_message=lambda source, frame: None,
            config=config,
        )

    def test_delays_advance_per_peer(self):
        manager = self._manager()
        delays = [manager._next_dial_delay(7) for _ in range(6)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        # Each peer gets its own schedule.
        assert manager._next_dial_delay(8) == 0.05
        assert manager._dial_attempts == {7: 6, 8: 1}

    def test_schedule_persists_across_dial_loops(self):
        # Unlike a loop-local counter, the schedule survives a dial loop
        # restarting: a peer that keeps failing handshakes does not get
        # the base delay back just because a fresh loop started.
        manager = self._manager()
        for _ in range(4):
            manager._next_dial_delay(3)
        assert manager._next_dial_delay(3) == 0.8

    def test_successful_handshake_resets_schedule(self):
        class _DummyWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        async def scenario():
            manager = self._manager()
            for _ in range(5):
                manager._next_dial_delay(7)
            reader = asyncio.StreamReader()
            reader.feed_eof()
            info = HandshakeInfo(node_id=7, genesis_digest="g", listen_port=1)
            manager._adopt(info, reader, _DummyWriter(), FrameDecoder(), [])
            assert 7 not in manager._dial_attempts
            # The next failure after a reset starts from the base delay.
            assert manager._next_dial_delay(7) == 0.05
            await manager.close()

        asyncio.run(scenario())


class TestReconnectCounter:
    """``reconnects`` counts re-dials of a known peer, not start-up waits."""

    def test_startup_dial_counts_zero_and_redial_after_drop_counts_one(self):
        def manager(node_id):
            return PeerManager(
                node_id=node_id,
                genesis_digest="g",
                on_message=lambda source, frame: None,
                config=PeerConfig(reconnect_base=0.02, reconnect_jitter=0.0),
            )

        async def scenario():
            dialer, listener = manager(0), manager(1)
            # A free port nothing listens on yet: the first dials fail.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            await dialer.start()
            dialer.dial(1, "127.0.0.1", port)
            while dialer._dial_attempts.get(1, 0) < 2:
                await asyncio.sleep(0.01)
            listener.port = port
            await listener.start()
            await dialer.wait_connected([1])
            assert dialer.reconnects == 0
            # The listener drops the link; the dialer's reader sees EOF
            # and dials again.
            listener._lost(listener._peers[0])
            while not (dialer.is_connected(1) and dialer.reconnects):
                await asyncio.sleep(0.01)
            assert dialer.reconnects == 1
            await dialer.close()
            await listener.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))


class TestPeerStateClose:
    """Closing a connection never raises, whatever state its transport is in."""

    @staticmethod
    async def _state(sock):
        reader, writer = await asyncio.open_connection(sock=sock)
        return PeerState(
            info=HandshakeInfo(node_id=1, genesis_digest="g", listen_port=0),
            reader=reader,
            writer=writer,
            queue=asyncio.Queue(),
        )

    def test_closing_a_peer_whose_transport_is_already_closed(self):
        async def scenario(sock):
            state = await self._state(sock)
            state.writer.transport.close()
            state.close()
            state.close()
            await asyncio.sleep(0)
            assert state.writer.transport.is_closing()

        ours, theirs = socket.socketpair()
        with theirs:
            asyncio.run(scenario(ours))

    def test_closing_a_peer_after_its_event_loop_closed(self):
        ours, theirs = socket.socketpair()
        with theirs:
            state = asyncio.run(self._state(ours))
            state.close()  # the transport's loop is gone: nothing to schedule on
            ours.close()


class TestCloseDuringHandshake:
    def test_close_ends_an_inbound_connection_still_in_its_handshake(self):
        """The server's connection is closed with the peers: close returns
        long before the handshake timeout and the other end sees EOF."""

        async def scenario():
            manager = PeerManager(
                node_id=0,
                genesis_digest="g",
                on_message=lambda source, frame: None,
                config=PeerConfig(handshake_timeout=60.0),
            )
            port = await manager.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # The manager's hello arrives: its side is now waiting for ours.
            decoder = FrameDecoder()
            while not decoder.feed(await reader.read(1 << 16)):
                pass
            assert manager._handshaking
            await asyncio.wait_for(manager.close(), timeout=2.0)
            assert await asyncio.wait_for(reader.read(1 << 16), timeout=2.0) == b""
            assert not manager._handshaking and not manager.connected_peers()
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))
