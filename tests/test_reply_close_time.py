"""The midpoint stamps each exchange's REPLY close time once.

Both nodes floor their post-REPLY scheduling at a close time derived from
the REPLY contents, never from the arrival time, so that their next attempt
windows fall on the same MHP cycles.  The midpoint computes that time once
per exchange and stamps it on both REPLYs (``MHPReply.close_time``); the
node MHP and the EGP read the stamp.  These tests pin the stamp to the
formula, bit for bit, for every kind of REPLY, and check that both REPLYs
of one exchange carry the same float.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import HeraldSample
from repro.core.messages import GenMessage, MHPError, Priority
from repro.core.mhp import MidpointHeraldingService
from repro.hardware.parameters import ql2020_scenario
from repro.runtime import WorkloadSpec, chain_grid
from repro.runtime.runner import SimulationRun
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine
from repro.topology.run import TopologyRun


def formula(timing, cycle: int, attempts_used: int, stride: int) -> float:
    """The close-time formula, written out term by term."""
    max_delay = max(timing.midpoint_delay_a, timing.midpoint_delay_b)
    resolved = (attempts_used - 1) * max(1, stride) * timing.mhp_cycle
    return cycle * timing.mhp_cycle + resolved + 2 * max_delay


def assert_stamped(reply, timing) -> None:
    expected = formula(timing, reply.cycle, reply.attempts_used,
                       reply.cycle_stride)
    assert reply.close_time.hex() == expected.hex()
    assert reply.close_time.hex() == reply.sync_close_time(timing).hex()


class _FixedModel:
    """Attempt model resolving every window to one preset outcome."""

    def __init__(self, attempts_used: int, sample: HeraldSample) -> None:
        self.attempts_used = attempts_used
        self.sample = sample

    def resolve(self, rng, batch: int):
        return min(self.attempts_used, batch), self.sample


ALPHA = 0.1


@pytest.fixture
def station():
    """A midpoint on the (asymmetric) QL2020 link whose REPLYs are
    recorded per node."""
    engine = SimulationEngine()
    scenario = ql2020_scenario()
    midpoint = MidpointHeraldingService(
        engine, scenario, rng=np.random.default_rng(1), backend="analytic")
    received = {"A": [], "B": []}
    timing = scenario.timing
    for node, delay in (("A", timing.midpoint_delay_a),
                        ("B", timing.midpoint_delay_b)):
        channel = ClassicalChannel(engine, delay, name=f"H->{node}")
        channel.connect(received[node].append)
        midpoint.attach_channel(node, channel)
    return engine, timing, midpoint, received


def _gen(origin: str, queue_id, cycle: int, batch: int = 1,
         stride: int = 1) -> GenMessage:
    return GenMessage(origin, queue_id, cycle, ALPHA, 0.0, batch, stride)


@pytest.mark.parametrize("outcome_code,attempts_used", [(1, 7), (2, 1),
                                                        (0, 10)])
def test_resolved_exchange_is_stamped_once_for_both_nodes(
        station, outcome_code, attempts_used):
    engine, timing, midpoint, received = station
    state = object() if outcome_code else None
    midpoint._models[ALPHA] = _FixedModel(
        attempts_used, HeraldSample(outcome_code=outcome_code, state=state))
    queue_id = (0, 4)
    midpoint.receive(_gen("A", queue_id, 1234, batch=10, stride=3))
    midpoint.receive(_gen("B", queue_id, 1234, batch=10, stride=3))
    engine.run()
    (reply_a,), (reply_b,) = received["A"], received["B"]
    for reply in (reply_a, reply_b):
        assert reply.error is MHPError.NONE
        assert reply.success is bool(outcome_code)
        assert reply.attempts_used == attempts_used
        assert reply.cycle_stride == 3
        assert_stamped(reply, timing)
    assert reply_a.close_time.hex() == reply_b.close_time.hex()


def test_queue_mismatch_is_stamped_once_for_both_nodes(station):
    engine, timing, midpoint, received = station
    midpoint.receive(_gen("A", (0, 4), 77))
    midpoint.receive(_gen("B", (0, 5), 77))
    engine.run()
    (reply_a,), (reply_b,) = received["A"], received["B"]
    for reply in (reply_a, reply_b):
        assert reply.error is MHPError.QUEUE_MISMATCH
        assert_stamped(reply, timing)
    assert reply_a.close_time.hex() == reply_b.close_time.hex()


def test_unmatched_gen_is_stamped(station):
    engine, timing, midpoint, received = station
    midpoint.receive(_gen("B", (1, 2), 99))
    engine.run()
    (reply,) = received["B"]
    assert received["A"] == []
    assert reply.error is MHPError.NO_MESSAGE_OTHER
    assert_stamped(reply, timing)


def test_unmatched_gen_is_stamped_at_every_cycle(station):
    """The midpoint stamps one-attempt REPLYs from a per-instance margin;
    its float must equal the formula's at any cycle, not just small ones."""
    engine, timing, midpoint, received = station
    rng = np.random.default_rng(5)
    cycles = [0, 1, 2, 3, 99, 12345, 2**31 - 1, 2**40 + 7]
    cycles += [int(c) for c in rng.integers(0, 2**45, size=300)]
    for cycle in cycles:
        midpoint.receive(_gen("B", (1, 2), cycle))
    engine.run()
    assert len(received["B"]) == len(cycles)
    for reply in received["B"]:
        assert reply.error is MHPError.NO_MESSAGE_OTHER
        assert_stamped(reply, timing)


def _record_replies(network, replies: list) -> None:
    """Wrap each node MHP's REPLY callback to record what it forwards."""
    for node in network.nodes.values():
        mhp = node.mhp
        forward = mhp.reply_callback

        def record(reply, forward=forward):
            replies.append(reply)
            forward(reply)

        mhp.reply_callback = record


@pytest.mark.parametrize("loss", [0.0, 1e-3])
def test_every_reply_of_a_link_run_carries_the_formula(loss):
    """Batched MD windows, successes and, on the lossy link, unmatched
    GENs: every REPLY the EGPs see carries the formula's float."""
    scenario = ql2020_scenario().with_frame_loss(loss)
    workload = (WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                             max_pairs=1, min_fidelity=0.6),
                WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                             max_pairs=3, min_fidelity=0.55))
    run = SimulationRun(scenario, workload,
                        scheduler="FCFS", seed=3, attempt_batch_size=100,
                        backend="analytic", obs=None)
    replies = []
    _record_replies(run.network, replies)
    run.run(2.0)
    assert any(r.attempts_used > 1 for r in replies)
    assert any(r.success for r in replies)
    if loss:
        assert any(r.error is MHPError.NO_MESSAGE_OTHER for r in replies)
    for reply in replies:
        assert_stamped(reply, scenario.timing)


def test_every_reply_of_a_chain_run_carries_the_formula():
    """K windows whose attempts are several cycles apart (stride > 1)."""
    spec, = chain_grid(lengths=(3,), loads=("Ultra",),
                       attempt_batch_size=100, backend="analytic")
    simulation = TopologyRun(spec.topology, spec.workload,
                             scheduler=spec.scheduler, seed=2,
                             attempt_batch_size=spec.attempt_batch_size,
                             backend=spec.backend)
    replies = {}
    for link in simulation.network.links:
        _record_replies(link.network, replies.setdefault(link.name, []))
    simulation.run(0.5)
    for link in simulation.network.links:
        assert any(r.attempts_used > 1 and r.cycle_stride > 1
                   for r in replies[link.name])
        for reply in replies[link.name]:
            assert_stamped(reply, link.network.scenario.timing)
