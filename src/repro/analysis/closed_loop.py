"""Closed-loop remediation runs on the fast simulator.

Drives the full operator story of the paper's introduction: training
iterations run, a silent fault appears, FlowPulse detects and localizes
it, the shared :class:`~repro.core.remediation.ClosedLoop` disables the
confirmed cable(s) in the control plane and rebuilds the load model for
the surviving topology, and training continues with temporal symmetry
restored — the fault is *routed around* without human involvement.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..collectives.demand import DemandMatrix
from ..core.remediation import ClosedLoop, ClosedLoopResult, ConfirmationPolicy
from ..fastsim.model import FabricModel, simulate_iteration
from ..simnet.packet import FlowTag


def run_closed_loop(
    model: FabricModel,
    demand: DemandMatrix,
    silent_faults: dict[str, float],
    n_iterations: int,
    fault_start_iteration: int = 0,
    threshold: float = 0.01,
    policy: ConfirmationPolicy | None = None,
    seed: int = 0,
    job_id: int = 1,
) -> ClosedLoopResult:
    """Run training under a silent fault with automatic remediation.

    ``model`` is the *known* network state (no silent faults).  The
    silent faults become active at ``fault_start_iteration`` and stay
    until their link is disabled by the remediation — at which point
    routing excludes the cable and the fault is moot.
    """
    loop = ClosedLoop(
        demand, model.control(), threshold=threshold, policy=policy, job_id=job_id
    )
    return run_fastsim_loop(
        loop, model, silent_faults, n_iterations, fault_start_iteration, seed
    )


def run_fastsim_loop(
    loop: ClosedLoop,
    model: FabricModel,
    silent_faults: dict[str, float],
    n_iterations: int,
    fault_start_iteration: int = 0,
    seed: int = 0,
) -> ClosedLoopResult:
    """:func:`run_closed_loop` for a caller-built ``loop`` whose control
    plane starts at ``model.known_disabled``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    known = model  # sprays where the loop's control plane lets it
    for iteration in range(n_iterations):
        active_faults = (
            {
                link: rate
                for link, rate in silent_faults.items()
                if link not in known.known_disabled
            }
            if iteration >= fault_start_iteration
            else {}
        )
        records = simulate_iteration(
            known.with_silent(active_faults),
            loop.demand,
            rng,
            tag=FlowTag(loop.job_id, iteration),
        )
        # Fastsim records carry iteration-index pseudo-times.
        if loop.observe(iteration, records, iteration, iteration + 1) is not None:
            known = replace(known, known_disabled=loop.control.routing_excluded)
    loop.result.iterations_completed = n_iterations
    return loop.result
