"""The benchmark's four workloads over the SCION stack.

Every workload is a closed loop with one client: the runner calls
``setup()`` a few times and ``warm_up()`` once, then per op ``prepare(i)``
(untimed input generation), times ``op(args)`` and calls
``inspect(i, args, result)`` (untimed output check), which returns whether
the op's output is correct and one line for the output digest.  All inputs
derive from the workload seed, so the first ops of a run — the ones the
digest covers — are identical on every run with that seed.

Class attributes the runner reads: ``min_ops`` (fewest timed ops),
``quantum`` (the timed loop stops on a multiple of it), ``digest_ops``
(ops the output digest covers), ``rep_ops`` (ops per repetition for the
reported statistics; None makes the whole run count) and ``rep_slots``
(repetitions before the inputs repeat; see ``run.op_metrics``).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Tuple

from repro.netsim import crucible
from repro.scion.addr import HostAddr
from repro.scion.control.segments import Beacon, BeaconError
from repro.sciera.build import build_sciera
from repro.sciera.topology_data import build_sciera_topology

#: Port every benchmark host binds its echo socket on.
ECHO_PORT = 7000
#: Churn takes a new link down every this many sends.
CHURN_PERIOD = 100
#: The crucible shrink target: the invariant the test-only bug violates.
SHRINK_INVARIANT = "codel-spares-critical"
SHRINK_MAX_FAULTS = 5


def derive_seed(label: str, seed: int, index: int) -> int:
    raw = hashlib.sha256(f"perfbench:{label}:{seed}:{index}".encode()).digest()
    return int.from_bytes(raw[:4], "big")


class Workload:
    """Defaults for the attributes and hooks the runner reads."""

    name = ""
    min_ops = 1
    quantum = 1
    digest_ops = 1
    rep_ops: Optional[int] = None
    rep_slots = 1
    #: Registry version bumps during the timed ops (read by a traced run).
    version_bumps = 0

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        """Untimed work after setup that brings the loop to steady state."""

    def final_args(self):
        """Arguments of one last op after the timed loop, or None."""
        return None


class Converge(Workload):
    """One op is one ``build_sciera`` with beacon verification on."""

    name = "converge"
    min_ops = 3
    #: Each build is a repetition: the fastest of at least three counts.
    rep_ops = 1

    def setup(self) -> None:
        # Nothing persists between ops; building the topology warms the
        # imports and validates the declared SCIERA links once.
        build_sciera_topology().validate()

    def prepare(self, i: int) -> int:
        return derive_seed(self.name, self.seed, i)

    def op(self, world_seed: int):
        return build_sciera(seed=world_seed, verify_beacons=True)

    def inspect(self, i: int, world_seed: int, world) -> Tuple[bool, str]:
        network = world.network
        self.version_bumps += network.registry.version
        snapshot = network.registry.snapshot()
        ups = {
            ia: service.path_server.snapshot().values()
            for ia, service in network.services.items()
        }
        segments = [
            seg for table in ("down", "core")
            for bucket in snapshot[table].values() for seg in bucket.values()
        ] + [seg for segs in ups.values() for seg in segs]
        resolver = Beacon.make_validating_key_resolver(
            network.cert_chain, network.trc_for, network.timestamp
        )
        ok = True
        for seg in segments:
            try:
                seg.verify(resolver, network.timestamp)
            except BeaconError:
                ok = False
        # Every AS pair has a path: an up segment (or the source is a
        # core) and a down segment (or the destination is a core) meet at
        # one core, or at two cores joined by a core segment.
        topology = network.topology
        up_cores = {
            ia: {ia} if topology.get(ia).is_core
            else {seg.origin_ia for seg in ups[ia]}
            for ia in topology.ases
        }
        down_cores = {
            ia: {ia} if topology.get(ia).is_core
            else {seg.origin_ia for seg in snapshot["down"].get(ia, {}).values()}
            for ia in topology.ases
        }
        joined = {
            pair for origin, terminal in snapshot["core"]
            for pair in ((origin, terminal), (terminal, origin))
        }
        for src, dst in network.all_as_pairs():
            ok = ok and any(
                x == y or (x, y) in joined
                for x in up_cores[src] for y in down_cores[dst]
            )
        fingerprints = sorted(seg.interface_fingerprint() for seg in segments)
        line = f"{i}|{world_seed}|{len(segments)}|{','.join(fingerprints)}"
        return ok, line


class Steady(Workload):
    """One op is one ``send_with_failover`` between seeded host pairs."""

    name = "steady"
    min_ops = 1000
    digest_ops = 1000
    #: The fastest 2000 consecutive sends count: 20 lie beyond the p99.
    rep_ops = 2000
    #: Simulated seconds between two sends: the 300 s daemon cache TTL
    #: expires every 25,000 sends, a few times per run.
    send_interval_s = 0.012

    def setup(self) -> None:
        self.rng = random.Random(f"perfbench:{self.name}:{self.seed}")
        # Drop the previous repetition's world before building the next.
        self.world = None
        world = build_sciera(seed=derive_seed(self.name, self.seed, -1))
        self.world = world
        self.network = world.network
        self.sockets = {}
        for ia_text in sorted(world.hosts):
            sock = world.pan(ia_text).open_socket(ECHO_PORT)
            sock.on_message(lambda payload, src, path: payload)
            self.sockets[ia_text] = sock
        self.pairs = [
            (a, b) for a in sorted(world.hosts) for b in sorted(world.hosts)
            if a != b
        ]
        self.start_s = float(self.network.timestamp)
        for src, dst in self.pairs:
            self.sockets[src].context.paths(world.hosts[dst].ia, self.start_s)
        self.start_version = self.network.registry.version
        self.sends = 0

    @property
    def version_bumps(self) -> int:
        return self.network.registry.version - self.start_version

    def prepare(self, i: int):
        self.sends += 1
        src, dst = self.pairs[self.rng.randrange(len(self.pairs))]
        host = self.world.hosts[dst]
        return (
            self.sockets[src], HostAddr(host.ia, host.ip, ECHO_PORT),
            self.sockets[dst], f"perfbench:{self.sends}".encode(),
            self.start_s + self.sends * self.send_interval_s,
        )

    def op(self, args):
        sock, dst, _, payload, now = args
        return sock.send_with_failover(dst, payload, now=now)

    def _line(self, i: int, args, result) -> str:
        sock, dst, echo, payload, _ = args
        # The echo socket logs every datagram; drop it so memory stays flat.
        echo.received.clear()
        fingerprint = result.path.fingerprint if result.path else "-"
        return (
            f"{i}|{sock.host.ia}>{dst.ia}|{int(result.success)}|"
            f"{result.paths_tried}|{fingerprint}|{result.failure}|"
            f"{int(result.reply == payload)}"
        )

    def inspect(self, i: int, args, result) -> Tuple[bool, str]:
        ok = result.success and result.reply == args[3]
        return ok, self._line(i, args, result)


def crossed_interfaces(meta) -> frozenset:
    """Interfaces at both ends of every inter-AS link the path crosses.

    A shortcut or peering crossover puts two hop fields of one AS next to
    each other; their interfaces toward the segments' cores sit in the hop
    fields (and in ``PathMeta.interfaces``) but no packet crosses them.
    """
    plan = meta.path.forwarding_plan()
    crossed = set()
    for here, there in zip(plan, plan[1:]):
        if here.hop.ia != there.hop.ia:
            crossed.add(f"{here.hop.ia}#{here.egress}")
            crossed.add(f"{there.hop.ia}#{there.ingress}")
    return frozenset(crossed)


class Churn(Steady):
    """Steady's loop plus one link outage every 100 sends.

    Outages cycle through one seeded permutation of all links: the warm-up
    and every timed cycle take each link down once, in the same order.
    For each link, the fastest of its timed outages counts.
    """

    name = "churn"
    #: 100 sends span the 10 s revocation TTL, so an outage's revocation
    #: expires as the next outage starts instead of piling up.
    send_interval_s = 0.1

    def setup(self) -> None:
        super().setup()
        self.outages = sorted(self.network.topology.links)
        self.rng.shuffle(self.outages)
        self.rep_ops = CHURN_PERIOD
        self.rep_slots = len(self.outages)
        self.quantum = CHURN_PERIOD * len(self.outages)
        self.min_ops = 2 * self.quantum
        self.down: Optional[str] = None
        self.down_interfaces: frozenset = frozenset()

    def warm_up(self) -> None:
        # The first daemon cache expiry (300 s in, send 3,000) ends the
        # transient in which the set-up sweep's cache entries still serve.
        for _ in range(self.quantum):
            args = self.prepare(-1)
            self.inspect(-1, args, self.op(args))
        self.start_version = self.network.registry.version

    def prepare(self, i: int):
        if self.sends % CHURN_PERIOD == 0:
            if self.down is not None:
                self.network.set_link_state(self.down, True)
            cycle_slot = self.sends // CHURN_PERIOD % len(self.outages)
            self.down = self.outages[cycle_slot]
            self.network.set_link_state(self.down, False)
            ends = self.network.topology.link_attachments[self.down]
            self.down_interfaces = frozenset(f"{ia}#{ifid}" for ia, ifid in ends)
        return super().prepare(i)

    def inspect(self, i: int, args, result) -> Tuple[bool, str]:
        # An undelivered datagram during an outage is an output, not an
        # error; a delivered one must not cross the downed link and must
        # echo back.
        ok = not result.success or (
            result.reply == args[3]
            and not self.down_interfaces & crossed_interfaces(result.path)
        )
        return ok, f"{self._line(i, args, result)}|{self.down}"


class Crucible(Workload):
    """One op is one campaign round: a fig1 and a rand64 fuzz schedule.

    A round, not a single schedule, is the op because the two topologies
    cost about 4 s and 2 s: per-schedule latencies fall into two clusters
    and their median would jump between them from run to run.  The run
    ends with one ddmin shrink.
    """

    name = "crucible"
    min_ops = 3
    topologies = ("fig1", "rand64")
    # version_bumps stays 0: the tracer counts them at CrucibleWorld.stop.

    def _schedule(self, i: int):
        return crucible.generate_schedule(
            seed=derive_seed(self.name, self.seed, i),
            topology=self.topologies[i % 2], n_faults=4,
        )

    def _shrink_schedule(self):
        return crucible.generate_schedule(
            seed=derive_seed("shrink", self.seed, 0), topology="mesh5",
            n_faults=6, ensure_kind="load-surge",
        )

    def setup(self) -> None:
        self.shrink = self._shrink_schedule()

    def prepare(self, i: int):
        return ("round", [self._schedule(2 * i), self._schedule(2 * i + 1)])

    def final_args(self):
        return ("shrink", self.shrink)

    def op(self, args):
        kind, schedule = args
        if kind == "round":
            return [crucible.run_schedule(each) for each in schedule]
        caught = crucible.run_schedule(schedule, bug="shed-critical")
        if caught.ok:
            return caught, None
        shrunk = crucible.shrink_schedule(
            schedule, bug="shed-critical",
            target=tuple(caught.violated_names()),
        )
        return caught, shrunk

    def inspect(self, i: int, args, result) -> Tuple[bool, str]:
        kind, schedule = args
        if kind == "round":
            line = "/".join(
                f"{i}|{each.topology}|{each.digest()}|{run.fault_digest}|"
                f"{run.fault_events}|{','.join(run.violated_names())}"
                for each, run in zip(schedule, result)
            )
            return all(run.ok for run in result), line
        caught, shrunk = result
        if shrunk is None:
            return False, f"shrink|{schedule.digest()}|not-caught"
        minimal = crucible.run_schedule(shrunk.schedule, bug="shed-critical")
        ok = (
            SHRINK_INVARIANT in shrunk.target
            and shrunk.shrunk_faults <= SHRINK_MAX_FAULTS
            and SHRINK_INVARIANT in minimal.violated_names()
        )
        line = (
            f"shrink|{schedule.digest()}|{shrunk.original_faults}>"
            f"{shrunk.shrunk_faults}|{shrunk.schedule.digest()}|{shrunk.runs}"
        )
        return ok, line


WORKLOADS = {cls.name: cls for cls in (Converge, Steady, Churn, Crucible)}


def digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
