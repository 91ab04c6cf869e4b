"""Golden event-order pins for the packet simulator.

Every number below was recorded before the engine/queue/link hot path
it guards was rewritten and must never move: the event count, the hop
count, the retransmissions, the drops and the final clock are all
functions of the exact ``(time, seq)`` order in which events fire and of
every RNG draw, and the per-port volumes are what FlowPulse measures.
A change that reorders two same-timestamp events, skips or adds a draw,
or lets a stale spray set outlive a ``control.disable`` shows up here as
a literal mismatch rather than as a shifted digest somewhere downstream.
The ECN and PFC rows also pin the marks and pauses: they are the cases
in which an idle link must still push a packet through its queue.

Run this file as a script to print the observations (for a deliberate,
reviewed re-pin only).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.collectives import (
    StagedCollectiveRunner,
    locality_optimized_ring,
    ring_reduce_scatter_stages,
)
from repro.simnet import DropFault, Network, PfcConfig
from repro.topology import ClosSpec, down_link, up_link

SPEC = ClosSpec(n_leaves=4, n_spines=2)
SEED = 22
TOTAL_BYTES = 120_000
MTU = 512
ITERATIONS = 2
#: Mid-run remediation: inside iteration 0 of the healthy run's ~9.2 us.
DISABLE_AT_NS = 2_500

#: Egress-queue ECN marking thresholds: at 4 096 B and 1 024 B a DATA
#: packet is marked only behind a backlog, at 512 B (= MTU) also on an
#: idle link — the three sides of the link's idle bypass.
ECN_THRESHOLDS = {"ecn_4096": 4096, "ecn_1024": 1024, "ecn_512": 512}
#: The PFC run: hosts inject three times faster than one uplink drains,
#: so leaf uplinks back up past watermarks set low enough for this small
#: collective (the defaults sit far above any backlog it builds), and
#: paused feeders hold packets.  Random spraying deadlocks this PFC model
#: at these watermarks (every feeder of a congested port pauses, so
#: pauses can wait on each other around the ring) and has no PFC row.
PFC_SPEC = replace(SPEC, host_link_rate_bps=3 * SPEC.link_rate_bps)
PFC_WATERMARKS = PfcConfig(xoff_bytes=4096, xon_bytes=3072)
QUEUE_CAPACITY = 65_536

SPRAYS = ("random", "adaptive", "round_robin")
SCENARIOS = ("healthy", "drop_fault", "disabled_then_disable", *ECN_THRESHOLDS)
ROWS = [(spray, scenario) for spray in SPRAYS for scenario in SCENARIOS] + [
    ("adaptive", "pfc"),
    ("round_robin", "pfc"),
]


def observe(spray: str, scenario: str):
    """Run one seeded ring collective; return what must not move."""
    known = frozenset()
    if scenario == "disabled_then_disable":
        known = frozenset({up_link(0, 0), down_link(0, 0)})
    pfc = scenario == "pfc"
    net = Network(
        PFC_SPEC if pfc else SPEC,
        seed=SEED,
        spray=spray,
        mtu=MTU,
        known_disabled=known,
        ecn_threshold_bytes=ECN_THRESHOLDS.get(scenario),
        queue_capacity=QUEUE_CAPACITY if pfc else None,
        enable_pfc=pfc,
    )
    for controller in net.pfc_controllers:
        controller.config = PFC_WATERMARKS
    if scenario == "drop_fault":
        net.inject_fault(up_link(1, 1), DropFault(0.2))
    if scenario == "disabled_then_disable":
        # Leaf 2 sprays on both uplinks until the control plane takes
        # one away mid-run; packets already queued on it still deliver.
        net.sim.schedule_at(DISABLE_AT_NS, net.control.disable, up_link(2, 1))
    collectors = net.install_collectors(job_id=1)
    stages = ring_reduce_scatter_stages(
        locality_optimized_ring(SPEC.n_hosts), TOTAL_BYTES
    )
    StagedCollectiveRunner(net, 1, stages, iterations=ITERATIONS).run()
    net.finalize_collectors()
    totals = (
        net.sim.events_executed,
        sum(link.delivered_packets for link in net.links.values()),
        sum(host.transport.retransmitted_packets for host in net.hosts),
        net.total_fault_drops(),
        net.sim.now,
        net.total_ecn_marks(),
        sum(controller.pauses_sent for controller in net.pfc_controllers),
    )
    port_bytes = [
        [dict(sorted(record.port_bytes.items())) for record in collector.records]
        for collector in collectors
    ]
    return totals, port_bytes


GOLDEN = {('adaptive', 'disabled_then_disable'): ((22667, 11328, 0, 0, 9217, 0, 0),
                                         [[{1: 90000}, {1: 90000}], [{1: 90000}, {1: 90000}],
                                          [{0: 49456, 1: 40544}, {0: 47408, 1: 42592}],
                                          [{0: 53344, 1: 36656}, {0: 90000}]]),
 ('adaptive', 'drop_fault'): ((23396, 11582, 74, 74, 78070, 0, 0),
                              [[{0: 44848, 1: 45152}, {0: 45664, 1: 44336}],
                               [{0: 48736, 1: 52112}, {0: 55088, 1: 46688}],
                               [{0: 56320, 1: 33680}, {0: 56320, 1: 33680}],
                               [{0: 43616, 1: 46384}, {0: 49760, 1: 40240}]]),
 ('adaptive', 'ecn_1024'): ((22666, 11328, 0, 0, 9217, 1368, 0),
                            [[{0: 45152, 1: 44848}, {0: 41872, 1: 48128}],
                             [{0: 41872, 1: 48128}, {0: 40240, 1: 49760}],
                             [{0: 50688, 1: 39312}, {0: 46688, 1: 43312}],
                             [{0: 38496, 1: 51504}, {0: 51600, 1: 38400}]]),
 ('adaptive', 'ecn_4096'): ((22666, 11328, 0, 0, 9217, 1224, 0),
                            [[{0: 45152, 1: 44848}, {0: 41872, 1: 48128}],
                             [{0: 41872, 1: 48128}, {0: 40240, 1: 49760}],
                             [{0: 50688, 1: 39312}, {0: 46688, 1: 43312}],
                             [{0: 38496, 1: 51504}, {0: 51600, 1: 38400}]]),
 ('adaptive', 'ecn_512'): ((22666, 11328, 0, 0, 9217, 1416, 0),
                           [[{0: 45152, 1: 44848}, {0: 41872, 1: 48128}],
                            [{0: 41872, 1: 48128}, {0: 40240, 1: 49760}],
                            [{0: 50688, 1: 39312}, {0: 46688, 1: 43312}],
                            [{0: 38496, 1: 51504}, {0: 51600, 1: 38400}]]),
 ('adaptive', 'healthy'): ((22666, 11328, 0, 0, 9217, 0, 0),
                           [[{0: 45152, 1: 44848}, {0: 41872, 1: 48128}],
                            [{0: 41872, 1: 48128}, {0: 40240, 1: 49760}],
                            [{0: 50688, 1: 39312}, {0: 46688, 1: 43312}],
                            [{0: 38496, 1: 51504}, {0: 51600, 1: 38400}]]),
 ('adaptive', 'pfc'): ((22666, 11328, 0, 0, 7141, 0, 48),
                       [[{0: 45360, 1: 44640}, {0: 45360, 1: 44640}],
                        [{0: 44848, 1: 45152}, {0: 44544, 1: 45456}],
                        [{0: 44848, 1: 45152}, {0: 44848, 1: 45152}],
                        [{0: 45360, 1: 44640}, {0: 45360, 1: 44640}]]),
 ('random', 'disabled_then_disable'): ((22667, 11328, 0, 0, 9217, 0, 0),
                                       [[{1: 90000}, {1: 90000}], [{1: 90000}, {1: 90000}],
                                        [{0: 49248, 1: 40752}, {0: 46688, 1: 43312}],
                                        [{0: 56720, 1: 33280}, {0: 90000}]]),
 ('random', 'drop_fault'): ((23353, 11559, 75, 75, 117470, 0, 0),
                            [[{0: 42080, 1: 47920}, {0: 45568, 1: 44432}],
                             [{0: 47408, 1: 52320}, {0: 52832, 1: 47408}],
                             [{0: 59184, 1: 30816}, {0: 55296, 1: 34704}],
                             [{0: 43104, 1: 46896}, {0: 50480, 1: 39520}]]),
 ('random', 'ecn_1024'): ((22666, 11328, 0, 0, 9217, 1368, 0),
                          [[{0: 42080, 1: 47920}, {0: 47408, 1: 42592}],
                           [{0: 42592, 1: 47408}, {0: 41984, 1: 48016}],
                           [{0: 50688, 1: 39312}, {0: 46176, 1: 43824}],
                           [{0: 42384, 1: 47616}, {0: 48944, 1: 41056}]]),
 ('random', 'ecn_4096'): ((22666, 11328, 0, 0, 9217, 1224, 0),
                          [[{0: 42080, 1: 47920}, {0: 47408, 1: 42592}],
                           [{0: 42592, 1: 47408}, {0: 41984, 1: 48016}],
                           [{0: 50688, 1: 39312}, {0: 46176, 1: 43824}],
                           [{0: 42384, 1: 47616}, {0: 48944, 1: 41056}]]),
 ('random', 'ecn_512'): ((22666, 11328, 0, 0, 9217, 1416, 0),
                         [[{0: 42080, 1: 47920}, {0: 47408, 1: 42592}],
                          [{0: 42592, 1: 47408}, {0: 41984, 1: 48016}],
                          [{0: 50688, 1: 39312}, {0: 46176, 1: 43824}],
                          [{0: 42384, 1: 47616}, {0: 48944, 1: 41056}]]),
 ('random', 'healthy'): ((22666, 11328, 0, 0, 9217, 0, 0),
                         [[{0: 42080, 1: 47920}, {0: 47408, 1: 42592}],
                          [{0: 42592, 1: 47408}, {0: 41984, 1: 48016}],
                          [{0: 50688, 1: 39312}, {0: 46176, 1: 43824}],
                          [{0: 42384, 1: 47616}, {0: 48944, 1: 41056}]]),
 ('round_robin', 'disabled_then_disable'): ((22667, 11328, 0, 0, 9217, 0, 0),
                                            [[{1: 90000}, {1: 90000}], [{1: 90000}, {1: 90000}],
                                             [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                             [{0: 60000, 1: 30000}, {0: 90000}]]),
 ('round_robin', 'drop_fault'): ((23373, 11563, 79, 79, 87956, 0, 0),
                                 [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                  [{0: 50576, 1: 50480}, {0: 49456, 1: 49248}],
                                  [{0: 50784, 1: 39216}, {0: 49456, 1: 40544}],
                                  [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]]),
 ('round_robin', 'ecn_1024'): ((22666, 11328, 0, 0, 9217, 1368, 0),
                               [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]]),
 ('round_robin', 'ecn_4096'): ((22666, 11328, 0, 0, 9217, 1224, 0),
                               [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                                [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]]),
 ('round_robin', 'ecn_512'): ((22666, 11328, 0, 0, 9217, 1416, 0),
                              [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]]),
 ('round_robin', 'healthy'): ((22666, 11328, 0, 0, 9217, 0, 0),
                              [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                               [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]]),
 ('round_robin', 'pfc'): ((22666, 11328, 0, 0, 7123, 0, 48),
                          [[{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                           [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                           [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}],
                           [{0: 45152, 1: 44848}, {0: 44848, 1: 45152}]])}


@pytest.mark.parametrize("spray, scenario", ROWS)
def test_event_order_is_pinned(spray, scenario):
    assert observe(spray, scenario) == GOLDEN[(spray, scenario)]


def test_scenarios_exercise_what_they_claim():
    """The pins are only worth keeping if the runs are not degenerate."""
    for spray in SPRAYS:
        healthy, _ = GOLDEN[(spray, "healthy")]
        faulty, _ = GOLDEN[(spray, "drop_fault")]
        rerouted, ports = GOLDEN[(spray, "disabled_then_disable")]
        assert healthy[2] == healthy[3] == 0
        assert faulty[3] > 0 and faulty[2] >= faulty[3]
        assert rerouted[3] == 0  # nothing is sprayed onto a dead cable
        # Leaf 3 hears leaf 2 on both spines before the mid-run disable
        # and only on spine 0 in the iteration after it.
        first, second = ports[3]
        assert set(first) == {0, 1} and set(second) == {0}
        # Marks only where ECN is on, more of them the lower the
        # threshold; with no congestion control they move nothing else.
        marks = [GOLDEN[(spray, name)][0][5] for name in ECN_THRESHOLDS]
        assert 0 < marks[0] < marks[1] < marks[2]
        for name in ECN_THRESHOLDS:
            assert GOLDEN[(spray, name)][0][:5] == healthy[:5]
    for (spray, scenario), (totals, _) in GOLDEN.items():
        assert (totals[6] > 0) == (scenario == "pfc")  # pauses fire
        assert (totals[5] > 0) == (scenario in ECN_THRESHOLDS)


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    import pprint

    pprint.pprint(
        {row: observe(*row) for row in ROWS},
        width=100,
        compact=True,
    )
