"""One closed loop, two substrates.

The fast simulator and the packet-level simulator drive the same
:class:`~repro.core.remediation.ClosedLoop`, so one fault on one fabric
must tell the same story on both: detection the iteration the fault
appears, remediation one iteration later, then recovery.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_closed_loop
from repro.collectives import locality_optimized_ring, ring_demand
from repro.core import RemediationAction
from repro.fastsim import FabricModel
from repro.scenarios import FaultEvent, SimnetClosedLoopConfig, run_simnet_closed_loop
from repro.simnet import DropFault
from repro.topology import ClosSpec
from repro.units import MIB

SPEC = ClosSpec(n_leaves=5, n_spines=3, hosts_per_leaf=1)
FAULT_LINK = "up:L2->S1"
DROP_RATE = 0.1
FAULT_ITERATION = 2
N_ITERATIONS = 5


def _fastsim():
    demand = ring_demand(locality_optimized_ring(SPEC.n_hosts), 256 * MIB)
    return run_closed_loop(
        FabricModel(SPEC, mtu=512),
        demand,
        {FAULT_LINK: DROP_RATE},
        n_iterations=N_ITERATIONS,
        fault_start_iteration=FAULT_ITERATION,
        seed=2,
    )


def _simnet():
    config = SimnetClosedLoopConfig(
        n_leaves=SPEC.n_leaves,
        n_spines=SPEC.n_spines,
        collective_bytes=1_000_000,
        mtu=512,
        n_iterations=N_ITERATIONS,
    )
    fault = FaultEvent(0, "inject", FAULT_LINK, DropFault(DROP_RATE))
    return run_simnet_closed_loop(config, iteration_faults={FAULT_ITERATION: [fault]})


@pytest.mark.parametrize("engine", [_fastsim, _simnet], ids=["fastsim", "simnet"])
def test_same_story_on_both_substrates(engine):
    result = engine()
    assert result.detection_iteration == FAULT_ITERATION
    assert result.remediation_iteration == FAULT_ITERATION + 1
    assert FAULT_LINK in result.actions[0].disabled_links
    assert result.recovered
    assert result.iterations_completed == N_ITERATIONS
    assert result.failed_messages == 0 and not result.stalled
    assert result.vetoed_actions == []

    # Every step field is populated, with the same meaning on both.
    assert [step.iteration for step in result.steps] == list(range(N_ITERATIONS))
    previous_end = 0
    for step in result.steps:
        assert step.start_ns == previous_end < step.end_ns
        previous_end = step.end_ns
        assert isinstance(step.triggered, bool) and isinstance(step.vetoed, bool)
        assert 0.0 < step.max_score < 1.0
        assert isinstance(step.suspected_links, frozenset)
        assert step.action is None or isinstance(step.action, RemediationAction)
        assert step.triggered == (step.iteration in (FAULT_ITERATION, FAULT_ITERATION + 1))
        assert bool(step.suspected_links) == step.triggered
        remediated = step.iteration >= FAULT_ITERATION + 1
        assert (FAULT_LINK in step.disabled_so_far) == remediated
    assert result.steps[FAULT_ITERATION + 1].action is result.actions[0]
