"""Scenario-scripted fault lifecycles and closed-loop remediation.

This package runs the paper's operator story on the *packet-level*
simulator (:mod:`repro.simnet`), not just the statistical fast
simulator:

- :mod:`repro.scenarios.script` — time-scripted fault lifecycles
  (inject / degrade / heal / disconnect) applied to a live
  :class:`~repro.simnet.network.Network` through engine-scheduled
  callbacks, so a link can start gray, worsen, and fully fail mid-run
  (the SprayCheck observation that gray failures evolve over time);
- :mod:`repro.scenarios.closed_loop` — an iteration-by-iteration
  driver feeding packet-sim measurements through
  :class:`~repro.core.monitor.FlowPulseMonitor` and
  :class:`~repro.core.remediation.RemediationEngine`, applying
  confirmed disables to the control plane mid-run and verifying
  temporal symmetry is restored;
- :mod:`repro.scenarios.chaos` — a seeded scenario generator plus an
  invariant checker (packet conservation, event-loop liveness,
  detection latency, post-remediation deviation), runnable as a test
  suite or via ``repro chaos``.
"""

from .chaos import (
    ChaosConfig,
    ChaosOutcome,
    ChaosReport,
    Scenario,
    check_invariants,
    generate_scenario,
    outcome_digest,
    run_chaos_batch,
    run_scenario,
)
from .closed_loop import (
    SimnetClosedLoopConfig,
    SimnetClosedLoopDriver,
    run_simnet_closed_loop,
)
from .script import (
    FaultEvent,
    FaultScript,
    ScenarioError,
    ScheduledScript,
    apply_fault_event,
)

__all__ = [
    "ChaosConfig",
    "ChaosOutcome",
    "ChaosReport",
    "FaultEvent",
    "FaultScript",
    "Scenario",
    "ScenarioError",
    "ScheduledScript",
    "SimnetClosedLoopConfig",
    "SimnetClosedLoopDriver",
    "apply_fault_event",
    "check_invariants",
    "generate_scenario",
    "outcome_digest",
    "run_chaos_batch",
    "run_scenario",
    "run_simnet_closed_loop",
]
