"""Tests for spray policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.simnet import (
    EcmpHash,
    LeastQueueSpray,
    Link,
    Node,
    Packet,
    PowerOfTwoSpray,
    RandomSpray,
    RoundRobinSpray,
    Simulator,
    make_policy,
)


class _Null(Node):
    def receive(self, packet, link):
        pass


def make_links(n, sizes=None):
    """Links with optional pre-loaded queue backlogs."""
    sim = Simulator()
    rng = np.random.Generator(np.random.PCG64(0))
    links = [
        Link(sim, f"l{i}", _Null(), units.GBPS, 0, rng) for i in range(n)
    ]
    if sizes:
        for link, size in zip(links, sizes):
            if size:
                # Two packets: the first starts transmitting (leaves the
                # queue), the second stays queued as backlog.
                link.enqueue(Packet(src_host=0, dst_host=1, size=1))
                link.enqueue(Packet(src_host=0, dst_host=1, size=size))
    return links


def _pkt(src=0, dst=1, msg=1):
    return Packet(src_host=src, dst_host=dst, size=100, msg_id=msg)


@pytest.fixture
def srng():
    return np.random.Generator(np.random.PCG64(42))


def test_random_spray_covers_all_candidates(srng):
    links = make_links(4)
    policy = RandomSpray()
    chosen = {policy.choose(links, _pkt(), srng).name for _ in range(200)}
    assert chosen == {"l0", "l1", "l2", "l3"}


def test_random_spray_roughly_uniform(srng):
    links = make_links(4)
    policy = RandomSpray()
    counts = {link.name: 0 for link in links}
    for _ in range(4000):
        counts[policy.choose(links, _pkt(), srng).name] += 1
    for count in counts.values():
        assert 800 < count < 1200


def test_least_queue_picks_emptiest(srng):
    links = make_links(3, sizes=[500, 0, 900])
    policy = LeastQueueSpray()
    assert policy.choose(links, _pkt(), srng).name == "l1"


def test_least_queue_breaks_ties_randomly(srng):
    links = make_links(3, sizes=[900, 0, 0])
    policy = LeastQueueSpray()
    chosen = {policy.choose(links, _pkt(), srng).name for _ in range(100)}
    assert chosen == {"l1", "l2"}


def test_po2_prefers_less_loaded(srng):
    links = make_links(2, sizes=[900, 0])
    policy = PowerOfTwoSpray()
    counts = {0: 0, 1: 0}
    for _ in range(100):
        name = policy.choose(links, _pkt(), srng).name
        counts[int(name[1])] += 1
    assert counts[1] == 100


def test_po2_single_candidate(srng):
    links = make_links(1)
    assert PowerOfTwoSpray().choose(links, _pkt(), srng) is links[0]


def test_ecmp_is_deterministic_per_flow(srng):
    links = make_links(8)
    policy = EcmpHash()
    packet = _pkt(msg=77)
    first = policy.choose(links, packet, srng)
    for _ in range(20):
        assert policy.choose(links, _pkt(msg=77), srng) is first


def test_ecmp_spreads_distinct_flows(srng):
    links = make_links(8)
    policy = EcmpHash()
    chosen = {
        policy.choose(links, _pkt(src=s, msg=s), srng).name for s in range(64)
    }
    assert len(chosen) > 3  # many flows land on many uplinks


def test_round_robin_cycles(srng):
    links = make_links(3)
    policy = RoundRobinSpray()
    names = [policy.choose(links, _pkt(), srng).name for _ in range(6)]
    assert names == ["l0", "l1", "l2", "l0", "l1", "l2"]


def test_round_robin_perfectly_even(srng):
    links = make_links(4)
    policy = RoundRobinSpray()
    counts = {link.name: 0 for link in links}
    for _ in range(400):
        counts[policy.choose(links, _pkt(), srng).name] += 1
    assert set(counts.values()) == {100}


def test_round_robin_rotation_belongs_to_the_link_set_not_the_list(srng):
    # Switches rebuild a candidate list after every control-plane change;
    # an equal set of links must continue the same rotation.
    links = make_links(3)
    policy = RoundRobinSpray()
    names = [policy.choose(list(links), _pkt(), srng).name for _ in range(4)]
    names += [policy.choose(links[::-1], _pkt(), srng).name for _ in range(2)]
    assert names == ["l0", "l1", "l2", "l0", "l1", "l0"]  # slots 1, 2 of l2,l1,l0


def test_round_robin_memo_stays_bounded_under_fresh_lists(srng):
    from repro.simnet.spraying import _ROTATION_KEYS_KEPT

    links = make_links(2)
    policy = RoundRobinSpray()
    for _ in range(_ROTATION_KEYS_KEPT + 10):
        policy.choose([links[0], links[1]], _pkt(), srng)
    assert len(policy._link_ids) <= _ROTATION_KEYS_KEPT


def test_flowlet_sticks_within_gap(srng):
    from repro.simnet import FlowletSpray

    links = make_links(4)
    policy = FlowletSpray(gap_ns=1000)
    first = policy.choose(links, _pkt(msg=5), srng)
    # Back-to-back packets of the same flow stay on the same uplink.
    for _ in range(20):
        assert policy.choose(links, _pkt(msg=5), srng) is first


def test_flowlet_repicks_after_gap(srng):
    from repro.simnet import FlowletSpray

    links = make_links(8)
    policy = FlowletSpray(gap_ns=10)
    sim = links[0].sim
    chosen = set()
    for _ in range(64):
        chosen.add(policy.choose(links, _pkt(msg=6), srng).name)
        sim.schedule(100, lambda: None)
        sim.run()  # advance time past the flowlet gap
    assert len(chosen) > 2


def test_flowlet_different_flows_independent(srng):
    from repro.simnet import FlowletSpray

    links = make_links(8)
    policy = FlowletSpray(gap_ns=1_000_000)
    chosen = {
        policy.choose(links, _pkt(src=s, msg=s), srng).name for s in range(64)
    }
    assert len(chosen) > 2


def test_flowlet_invalid_gap():
    from repro.simnet import FlowletSpray

    with pytest.raises(ValueError):
        FlowletSpray(gap_ns=0)


def test_make_policy_by_name():
    from repro.simnet import FlowletSpray

    assert isinstance(make_policy("random"), RandomSpray)
    assert isinstance(make_policy("adaptive"), LeastQueueSpray)
    assert isinstance(make_policy("po2"), PowerOfTwoSpray)
    assert isinstance(make_policy("ecmp"), EcmpHash)
    assert isinstance(make_policy("round_robin"), RoundRobinSpray)
    assert isinstance(make_policy("flowlet"), FlowletSpray)


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown spray policy"):
        make_policy("bogus")


def test_ecmp_is_endpoint_stable_across_messages(srng):
    # Per routing epoch, a host pair pins to one uplink regardless of
    # which message a packet belongs to — real ECMP hashes headers, not
    # transport message ids.
    links = make_links(8)
    policy = EcmpHash()
    first = policy.choose(links, _pkt(src=3, dst=9, msg=1), srng)
    for msg in range(2, 30):
        assert policy.choose(links, _pkt(src=3, dst=9, msg=msg), srng) is first


def test_ecmp_salt_rerolls_the_hash(srng):
    links = make_links(8)
    mapping = {
        salt: {
            s: EcmpHash(salt=salt).choose(links, _pkt(src=s, dst=s + 1), srng).name
            for s in range(32)
        }
        for salt in (0, 1)
    }
    assert mapping[0] != mapping[1]  # a re-seeded switch repins flows


def test_ecmp_same_salt_is_deterministic(srng):
    links = make_links(8)
    a, b = EcmpHash(salt=5), EcmpHash(salt=5)
    for s in range(16):
        packet = _pkt(src=s, dst=s + 1)
        assert a.choose(links, packet, srng) is b.choose(links, packet, srng)


def test_policies_respect_shrunken_candidate_set(srng):
    # The control plane narrows the candidate list after a disable or a
    # spray exclusion; every policy must stay inside what it is given.
    links = make_links(4)
    survivors = links[1:3]
    for policy in (
        RoundRobinSpray(),
        RandomSpray(),
        LeastQueueSpray(),
        EcmpHash(),
    ):
        for i in range(40):
            chosen = policy.choose(survivors, _pkt(src=i, msg=i), srng)
            assert chosen in survivors
