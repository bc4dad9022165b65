"""Unit tests for classical channels."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.hardware.parameters import lab_scenario
from repro.network import LinkLayerNetwork
from repro.sim.channel import (
    ClassicalChannel,
    FIBRE_LIGHT_SPEED_KM_S,
    fibre_delay,
)
from repro.sim.engine import SimulationEngine


class TestFibreDelay:
    def test_delay_scales_with_length(self):
        assert fibre_delay(25.0) == pytest.approx(25.0 / FIBRE_LIGHT_SPEED_KM_S)

    def test_zero_length(self):
        assert fibre_delay(0.0) == 0.0

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            fibre_delay(-1.0)


class TestClassicalChannel:
    def test_delivers_after_delay(self, engine):
        channel = ClassicalChannel(engine, delay=0.5)
        received = []
        channel.connect(lambda msg: received.append((engine.now, msg)))
        channel.send("hello")
        engine.run()
        assert received == [(0.5, "hello")]

    def test_preserves_message_order(self, engine):
        channel = ClassicalChannel(engine, delay=0.1)
        received = []
        channel.connect(received.append)
        for i in range(5):
            channel.send(i)
        engine.run()
        assert received == [0, 1, 2, 3, 4]

    def test_send_without_receiver_raises(self, engine):
        channel = ClassicalChannel(engine, delay=0.1)
        with pytest.raises(RuntimeError):
            channel.send("x")

    def test_zero_loss_never_drops(self, engine):
        channel = ClassicalChannel(engine, delay=0.0, loss_probability=0.0)
        received = []
        channel.connect(received.append)
        for i in range(100):
            channel.send(i)
        engine.run()
        assert len(received) == 100
        assert channel.messages_lost == 0

    def test_full_loss_drops_everything(self, engine):
        channel = ClassicalChannel(engine, delay=0.0, loss_probability=1.0)
        received = []
        channel.connect(received.append)
        for i in range(50):
            channel.send(i)
        engine.run()
        assert received == []
        assert channel.messages_lost == 50

    def test_partial_loss_statistics(self, engine):
        rng = np.random.default_rng(7)
        channel = ClassicalChannel(engine, delay=0.0, loss_probability=0.3,
                                   rng=rng)
        received = []
        channel.connect(received.append)
        total = 2000
        for i in range(total):
            channel.send(i)
        engine.run()
        loss_rate = channel.messages_lost / total
        assert 0.25 < loss_rate < 0.35
        assert len(received) == total - channel.messages_lost

    def test_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            ClassicalChannel(engine, delay=-1.0)
        with pytest.raises(ValueError):
            ClassicalChannel(engine, delay=0.0, loss_probability=1.5)

    def test_history_recording(self, engine):
        channel = ClassicalChannel(engine, delay=0.2)
        channel.record_history = True
        channel.connect(lambda m: None)
        channel.send("payload")
        engine.run()
        assert len(channel.history) == 1
        assert channel.history[0].delivered_at == pytest.approx(0.2)
        assert channel.history[0].lost is False


class TestLossDraws:
    """A lossless channel skips its loss draw; a lossy one draws once per
    send.  Skipping is outcome-preserving only while every channel on a
    shared generator has the same loss probability."""

    @staticmethod
    def _channel(engine, loss):
        rng = np.random.default_rng(11)
        channel = ClassicalChannel(engine, delay=0.1, loss_probability=loss,
                                   rng=rng)
        channel.connect(lambda msg: None)
        return channel, rng

    def test_lossless_channel_leaves_rng_untouched(self, engine):
        channel, rng = self._channel(engine, 0.0)
        before = rng.bit_generator.state
        assert channel.send("a")
        assert channel.send_delayed("b", 0.25)
        engine.run()
        assert rng.bit_generator.state == before
        assert channel.messages_sent == 2 and channel.messages_lost == 0

    @pytest.mark.parametrize("loss", [1e-4, 0.5, 1.0])
    def test_lossy_channel_draws_once_per_send(self, engine, loss):
        channel, rng = self._channel(engine, loss)
        reference = np.random.default_rng(11)
        expected = []
        for payload in range(6):
            expected.append(not reference.random() < loss)
            if payload % 2:
                delivered = channel.send_delayed(payload, 0.25)
            else:
                delivered = channel.send(payload)
            assert delivered == expected[-1]
        assert rng.bit_generator.state == reference.bit_generator.state
        assert channel.messages_lost == expected.count(False)

    @pytest.mark.parametrize("loss", [0.0, 1e-4])
    def test_network_channels_sharing_a_generator_share_one_loss(self, loss):
        network = LinkLayerNetwork(lab_scenario().with_frame_loss(loss),
                                   seed=3, backend="analytic")
        built = [obj for obj in gc.get_objects()
                 if isinstance(obj, ClassicalChannel)
                 and obj._engine is network.engine]
        on_shared = [channel for channel in built
                     if channel._rng is network._rngs["channels"]]
        assert on_shared, "no channel draws from the shared generator"
        assert {channel.loss_probability for channel in on_shared} == {loss}
        # Every channel the network built is one it reports.
        assert ({id(channel) for channel in built}
                == {id(channel)
                    for channel in network.classical_channels.values()})
