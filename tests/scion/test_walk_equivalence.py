"""The dataplane's cached egress resolution equals a per-hop topology walk.

``ScionDataplane`` resolves ``(AS, egress ifid)`` to ``(link, remote
interface)`` once and reuses it.  The reference walk below is the uncached
walk: it asks the topology for the link and the interface on every hop.
Over random link states, router interface marks, partitions, expiry and
tampered hop fields the two must return equal :class:`ProbeResult`s —
including after the egress cache is warm, and after ``enroll_as`` grows
the topology at run time.
"""

import dataclasses
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.addr import IA
from repro.scion.dataplane.network import ProbeResult, ScionDataplane
from repro.scion.dataplane.router import Verdict
from repro.scion.path import DataplanePath, PathSegmentHops
from repro.scion.scmp import interface_down
from repro.scion.network import ScionNetwork

from tests.conftest import make_diamond_topology, make_peering_topology


def reference_walk(
    dataplane: ScionDataplane, path: DataplanePath, now: float
) -> ProbeResult:
    """The walk with ``link_between`` and an interface lookup per hop."""
    records = path.forwarding_plan()
    if not records:
        return ProbeResult(False, failure="empty-path")
    topology = dataplane.topology
    delay = 0.0
    arrival_ifid: Optional[int] = None
    index = 0
    while index < len(records):
        record = records[index]
        ia = record.hop.ia
        router = dataplane.routers.get(ia)
        if router is None:
            return ProbeResult(False, failure="unknown-as", failed_at=ia)
        next_record = records[index + 1] if index + 1 < len(records) else None
        decision = router.decide(record, next_record, arrival_ifid, now)
        delay += dataplane.router_processing_s
        if decision.verdict is Verdict.DELIVER:
            return ProbeResult(True, rtt_s=2 * delay, one_way_s=delay)
        if decision.verdict is Verdict.CROSSOVER:
            index += 1
            arrival_ifid = None
            continue
        if decision.verdict is not Verdict.FORWARD:
            return dataplane._verdict_result(decision, ia, now)
        egress = decision.egress_ifid
        link = topology.link_between(ia, egress)
        if link is None:
            return ProbeResult(False, failure="no-link", failed_at=ia)
        if not link.up:
            router.link_down_drops.inc()
            scmp = interface_down(str(ia), egress)
            return ProbeResult(
                False, failure="link-down", failed_at=ia, failed_ifid=egress,
                scmp=scmp, revocation=dataplane.revocation_for(scmp, now),
            )
        if link.blocked_senders and str(ia) in link.blocked_senders:
            return ProbeResult(
                False, failure="partition", failed_at=ia, failed_ifid=egress,
            )
        iface = topology.get(ia).interfaces[egress]
        if next_record is None or next_record.hop.ia != iface.remote_ia:
            return ProbeResult(False, failure="path-link-mismatch", failed_at=ia)
        delay += link.latency_s
        arrival_ifid = iface.remote_ifid
        index += 1
    return ProbeResult(False, failure="fell-off-path")


def reference_reply_cut(dataplane: ScionDataplane, path: DataplanePath):
    """The AS whose echo reply is partitioned, via ``link_between``."""
    records = path.forwarding_plan()
    for here, there in zip(records, records[1:]):
        if there.hop.ia == here.hop.ia:
            continue
        link = dataplane.topology.link_between(here.hop.ia, here.oriented()[1])
        if link is not None and link.other(str(here.hop.ia)) in link.blocked_senders:
            return there.hop.ia
    return None


def tamper(path: DataplanePath, hop_index: int) -> DataplanePath:
    """``path`` with one hop field's MAC flipped (counted over all hops)."""
    segments = []
    seen = 0
    for seg in path.segments:
        hops = list(seg.hops)
        for pos, hop in enumerate(hops):
            if seen == hop_index:
                flipped = bytes(b ^ 0xFF for b in hop.mac)
                hops[pos] = dataclasses.replace(hop, mac=flipped)
            seen += 1
        segments.append(PathSegmentHops(seg.info, tuple(hops)))
    return DataplanePath(tuple(segments))


def all_paths(network: ScionNetwork):
    return [
        meta.path
        for src, dst in network.all_as_pairs()
        for meta in network.paths(src, dst)
    ]


@pytest.fixture(scope="module", params=["diamond", "peering"])
def world(request):
    build = {
        "diamond": make_diamond_topology,
        "peering": make_peering_topology,
    }[request.param]
    network = ScionNetwork(build(), seed=7)
    return network, all_paths(network)


link_states = st.lists(st.booleans(), min_size=8, max_size=8)
ifid_marks = st.lists(st.tuples(st.integers(0, 7), st.integers(1, 4)),
                      max_size=3)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cached_walk_equals_reference(world, data):
    network, paths = world
    dataplane = network.dataplane
    topology = network.topology
    links = sorted(topology.links.values(), key=lambda link: link.name)
    routers = [dataplane.routers[ia] for ia in sorted(dataplane.routers)]
    ups = data.draw(link_states)
    marks = data.draw(ifid_marks)
    cuts = data.draw(st.lists(st.integers(0, len(links) - 1), max_size=2))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    expiry = path.min_expiry()
    now = data.draw(st.sampled_from(
        [float(network.timestamp), expiry - 1.0, expiry + 1.0]
    ))
    try:
        for link, up in zip(links, ups):
            link.set_up(up)
        for router_index, ifid in marks:
            routers[router_index % len(routers)].mark_interface_down(ifid)
        for cut in cuts:
            link = links[cut]
            link.block_sender(link.endpoints()[0])
            topology.partitioned_links.add(link.name)
        # Twice: the second walk runs with every hop's egress cached.
        for _ in range(2):
            assert dataplane.walk(path, now) == reference_walk(
                dataplane, path, now
            )
        assert dataplane._reply_partitioned(path) == reference_reply_cut(
            dataplane, path
        )
        # A tampered hop is rejected even though its untampered path
        # warmed the egress cache for every hop along the way.
        hop_index = data.draw(st.integers(0, len(path.hops()) - 1))
        forged = tamper(path, hop_index)
        got = dataplane.walk(forged, now)
        assert got == reference_walk(dataplane, forged, now)
        assert not got.success
    finally:
        for link in links:
            link.set_up(True)
            for endpoint in link.endpoints():
                link.unblock_sender(endpoint)
        topology.partitioned_links.clear()
        for router in routers:
            for ifid in router.down_interfaces:
                router.mark_interface_up(ifid)


def test_tampered_hop_rejected_after_cache_warm(diamond_network):
    network = diamond_network
    now = float(network.timestamp)
    meta = network.paths(IA.parse("71-100"), IA.parse("71-200"))[0]
    assert network.dataplane.walk(meta.path, now).success
    for hop_index in range(len(meta.path.hops())):
        result = network.dataplane.walk(tamper(meta.path, hop_index), now)
        assert result.failure == Verdict.DROP_BAD_MAC.value


def test_enrollment_seen_after_cache_warm():
    network = ScionNetwork(make_diamond_topology(), seed=7)
    dataplane = network.dataplane
    now = float(network.timestamp)
    for path in all_paths(network):
        dataplane.walk(path, now)
    newcomer = IA.parse("71-300")
    network.enroll_as(
        newcomer,
        [(IA.parse("71-1"), 0.003), (IA.parse("71-200"), 0.002)],
        name="newcomer",
    )
    now = float(network.timestamp)
    fresh = [
        meta.path
        for src, dst in network.all_as_pairs()
        if newcomer in (src, dst)
        for meta in network.paths(src, dst)
    ]
    assert fresh
    for path in fresh:
        result = dataplane.walk(path, now)
        assert result.success
        assert result == reference_walk(dataplane, path, now)
    # The enrolled links go down like any other: live link state.
    for link in network.topology.links.values():
        if link.name.startswith("enroll:"):
            link.set_up(False)
    for path in fresh:
        assert dataplane.walk(path, now) == reference_walk(dataplane, path, now)
        assert not dataplane.walk(path, now).success
