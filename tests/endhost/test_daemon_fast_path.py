"""The daemon's cache-hit fast path skips only work that cannot match.

A lookup skips the down-interface scan while no interface is marked down,
and the registry answers ``active_revocations`` without purging or sorting
while it holds none.  Neither shortcut may hide a revocation another host
pushed, keep an SCMP down report past its TTL, or break the lookup
accounting.
"""

import pytest

from repro.endhost.daemon import Daemon
from repro.scion.addr import IA
from repro.scion.revocation import Revocation
from repro.scion.scmp import interface_down

A = IA.parse("71-100")
B = IA.parse("71-200")


def assert_accounting(daemon: Daemon) -> None:
    stats = daemon.stats
    assert stats.lookups == stats.cache_hits + stats.fetches


@pytest.fixture()
def hosts(fresh_diamond_network):
    """Two daemons on different hosts of AS A, both with warm caches."""
    net = fresh_diamond_network
    first, second = Daemon(net, A), Daemon(net, A)
    for daemon in (first, second):
        daemon.lookup(B, now=0.0)
    return net, first, second


def test_revocation_pushed_by_one_host_is_pulled_by_another(hosts):
    net, first, second = hosts
    registry = net.registry
    assert registry.active_revocations(0.0) == []
    version = registry.version
    second.lookup(B, now=1.0)
    assert registry.version == version  # an empty registry is not touched

    victim = second.lookup(B, now=2.0)[0].interfaces[0]
    origin, ifid = victim.split("#")
    token = Revocation(
        ia=IA.parse(origin), ifid=int(ifid), issued_at=3.0, ttl_s=10.0,
    ).signed_by(net.signing_keys[IA.parse(origin)])
    first.handle_revocation(token, now=3.0)
    assert first.stats.revocations_pushed == 1
    assert [rev.key for rev in registry.active_revocations(3.0)] == [victim]

    served = second.lookup(B, now=4.0)
    assert second.stats.revocations_pulled == 1
    assert served
    assert all(victim not in meta.interfaces for meta in served)
    assert victim in second.down_interfaces

    # Past the token's TTL the registry purges it and the mark lapses.
    second.lookup(B, now=14.0)
    assert registry.active_revocations(14.0) == []
    assert second.down_interfaces == []
    assert second.stats.revocations_pulled == 1
    for daemon in (first, second):
        assert_accounting(daemon)


def test_scmp_down_report_still_expires(hosts):
    _, first, _ = hosts
    everything = first.lookup(B, now=0.0)
    victim = everything[0].interfaces[0]
    origin, ifid = victim.split("#")
    first.handle_scmp(interface_down(origin, int(ifid)), now=1.0)
    until = 1.0 + first.down_interface_ttl_s

    filtered = first.lookup(B, now=until - 0.5)
    assert first.down_interfaces == [victim]
    assert len(filtered) < len(everything)
    assert all(victim not in meta.interfaces for meta in filtered)

    restored = first.lookup(B, now=until)
    assert first.down_interfaces == []
    assert [m.fingerprint for m in restored] == [
        m.fingerprint for m in everything
    ]
    assert_accounting(first)


def test_lookup_accounting_over_hits_fetches_and_failures(hosts):
    net, first, _ = hosts
    ttl = first.cache_ttl_s
    for now in (1.0, 2.0, ttl + 1.0, ttl + 2.0, 3 * ttl):
        first.lookup(B, now=now)
        assert_accounting(first)
    first.flush_cache()
    first.lookup(B, now=3 * ttl + 1.0)
    assert first.lookup(IA.parse("71-999"), now=3 * ttl + 2.0) == []
    assert_accounting(first)
    stats = first.stats
    assert stats.lookups == 8
    assert stats.cache_hits == 3
    assert stats.fetches == 5
    assert stats.failed_fetches == 1
