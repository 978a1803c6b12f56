"""Dataplane paths: info fields, hop fields, and end-to-end paths.

A SCION packet carries its forwarding path in the header: up to three
segments (up, core, down), each an info field plus a list of hop fields.
Hop fields are created during beaconing in *construction direction* and
carry a MAC keyed by the owning AS's forwarding key.

Simulation simplification (documented in DESIGN.md): the chaining
accumulator ``beta`` is stored explicitly in each hop field rather than
being recovered by the router via the segID XOR trick; routers still
recompute and verify the MAC with their own secret key, so hop fields
remain unforgeable and unsplicable by anyone else.

Performance: a :class:`DataplanePath` is immutable, but its derived views
(forwarding plan, interface ids, fingerprint) used to be rebuilt on every
packet walk — the dominant allocation source on the dataplane hot path.
They are now computed once per path and cached on the instance (frozen
dataclasses keep a ``__dict__``, so the memo bypasses the frozen
``__setattr__`` without affecting equality or hashing, which remain
field-based).  The forwarding plan is the one memo of the hop order: the
hop list, AS sequence and end IAs are read off it rather than cached a
second time.  :class:`PathMeta` memoizes its fingerprint and its policy
sort keys, so ordering a path list per send reads one stored key per
path.  Interface-id strings are ``sys.intern``-ed: measurement campaigns
compare millions of them for disjointness and set membership, and
interning turns those comparisons into pointer checks.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto import mac as mac_mod
from repro.scion.crypto.mac import chain_beta, hop_mac, verify_hop_mac

#: Default hop-field lifetime (SCION's coarse-grained 6h units; we use 24h).
DEFAULT_HOP_EXPIRY_S = 24 * 3600


class PathError(Exception):
    """Raised for malformed or inconsistent paths."""


@dataclass(frozen=True)
class HopField:
    """One AS's hop in a segment, in construction direction."""

    ia: IA
    cons_ingress: int     # interface the beacon entered on (0 at origin)
    cons_egress: int      # interface the beacon left on (0 at the last AS)
    expiry: int           # absolute expiry timestamp (coarse seconds)
    beta: int             # chaining accumulator at this hop
    mac: bytes

    @classmethod
    def create(
        cls,
        ia: IA,
        key: SymmetricKey,
        timestamp: int,
        cons_ingress: int,
        cons_egress: int,
        beta: int,
        expiry: Optional[int] = None,
    ) -> "HopField":
        exp = expiry if expiry is not None else timestamp + DEFAULT_HOP_EXPIRY_S
        mac = hop_mac(key, timestamp, exp, cons_ingress, cons_egress, beta)
        return cls(ia, cons_ingress, cons_egress, exp, beta, mac)

    def verify(self, key: SymmetricKey, timestamp: int) -> bool:
        """Check the MAC, memoizing the verdict per ``(key, timestamp)``.

        A hop field is verified with the same key and segment timestamp on
        every packet that carries it, so the last verdict is cached on the
        instance (immutable inputs → the verdict can never change).  The
        memo honours :func:`repro.scion.crypto.mac.set_mac_cache` so
        benchmarks can measure the uncached baseline.
        """
        if not mac_mod.cache_enabled():
            return verify_hop_mac(
                key, timestamp, self.expiry, self.cons_ingress,
                self.cons_egress, self.beta, self.mac,
            )
        memo = self.__dict__.get("_verify_memo")
        if memo is not None and memo[0] is key and memo[1] == timestamp:
            return memo[2]
        ok = verify_hop_mac(
            key, timestamp, self.expiry, self.cons_ingress, self.cons_egress,
            self.beta, self.mac,
        )
        self.__dict__["_verify_memo"] = (key, timestamp, ok)
        return ok

    def next_beta(self) -> int:
        return chain_beta(self.beta, self.mac)


@dataclass(frozen=True)
class InfoField:
    """Per-segment metadata in the path header."""

    timestamp: int       # segment creation time; MACs bind to it
    seg_id: int          # initial beta of the segment
    cons_dir: bool       # True if the packet travels in construction direction


@dataclass(frozen=True)
class PathSegmentHops:
    """One segment of a dataplane path: info field + ordered hop fields.

    Hop fields are stored in construction direction; ``cons_dir`` in the
    info field says whether the packet traverses them in that order (down/
    core segments) or reversed (up segments).
    """

    info: InfoField
    hops: Tuple[HopField, ...]

    def forwarding_hops(self) -> Tuple[HopField, ...]:
        """Hops in the order the packet actually visits them."""
        return self.hops if self.info.cons_dir else tuple(reversed(self.hops))


@dataclass(frozen=True)
class DataplanePath:
    """A complete end-to-end path: 1-3 segments.

    Derived views are memoized per instance (the path is immutable); all
    cached values are pure functions of the segments, so caching cannot
    change any observable result — only skip rebuilding it.
    """

    segments: Tuple[PathSegmentHops, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.segments) <= 3):
            raise PathError(f"a path has 1..3 segments, got {len(self.segments)}")

    def _memo(self, key: str, build):
        cached = self.__dict__.get(key)
        if cached is None:
            cached = build()
            self.__dict__[key] = cached
        return cached

    def hops(self) -> Tuple[Tuple[HopField, InfoField], ...]:
        """All hops in forwarding order, paired with their info field."""
        return tuple((record.hop, record.info) for record in self.forwarding_plan())

    def as_sequence(self) -> List[IA]:
        """The sequence of ASes visited, de-duplicating segment joints."""
        seq: List[IA] = []
        for record in self.forwarding_plan():
            ia = record.hop.ia
            if not seq or seq[-1] != ia:
                seq.append(ia)
        return seq

    def forwarding_plan(self) -> Tuple["HopRecord", ...]:
        """All hops in forwarding order with segment-boundary annotations.

        Built once and cached: every packet walk and every event-driven hop
        used to rebuild this list, which made per-hop cost O(path length).
        """
        return self._memo("_plan", self.build_forwarding_plan)

    def build_forwarding_plan(self) -> Tuple["HopRecord", ...]:
        """Uncached plan construction (the benchmark baseline path)."""
        out: List[HopRecord] = []
        for seg_index, seg in enumerate(self.segments):
            fwd = seg.forwarding_hops()
            last = len(fwd) - 1
            for pos, hop in enumerate(fwd):
                ingress, egress = oriented_interfaces(hop, seg.info)
                out.append(
                    HopRecord(
                        hop=hop,
                        info=seg.info,
                        seg_index=seg_index,
                        is_seg_first=(pos == 0),
                        is_seg_last=(pos == last),
                        ingress=ingress,
                        egress=egress,
                    )
                )
        return tuple(out)

    @property
    def src_ia(self) -> IA:
        return self.forwarding_plan()[0].hop.ia

    @property
    def dst_ia(self) -> IA:
        return self.forwarding_plan()[-1].hop.ia

    def interface_ids(self) -> Tuple[str, ...]:
        """Globally unique interface ids traversed (paper, Section 5.4).

        The strings are interned and the tuple cached — disjointness and
        set-membership checks over millions of probes then compare by
        identity in the common case.
        """
        return self._memo("_iface_ids", self._build_interface_ids)

    def _build_interface_ids(self) -> Tuple[str, ...]:
        ids: List[str] = []
        for record in self.forwarding_plan():
            hop = record.hop
            if record.ingress:
                ids.append(sys.intern(f"{hop.ia}#{record.ingress}"))
            if record.egress:
                ids.append(sys.intern(f"{hop.ia}#{record.egress}"))
        return tuple(ids)

    def fingerprint(self) -> str:
        """Stable short identifier for this path (by interfaces traversed)."""
        return self._memo("_fingerprint", self._build_fingerprint)

    def _build_fingerprint(self) -> str:
        raw = "|".join(self.interface_ids()).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    def num_as_hops(self) -> int:
        return len(self.as_sequence())

    def min_expiry(self) -> int:
        return min(record.hop.expiry for record in self.forwarding_plan())


@dataclass(frozen=True)
class HopRecord:
    """One hop in forwarding order, with its segment position.

    ``ingress``/``egress`` are the *oriented* interfaces (travel direction
    applied), precomputed at plan build so routers do not re-derive them per
    packet; ``-1`` means "not precomputed" and :meth:`oriented` falls back
    to deriving them from the hop and info fields.
    """

    hop: HopField
    info: InfoField
    seg_index: int
    is_seg_first: bool
    is_seg_last: bool
    ingress: int = -1
    egress: int = -1

    def oriented(self) -> Tuple[int, int]:
        """(actual ingress, actual egress) given the travel direction."""
        if self.ingress >= 0:
            return self.ingress, self.egress
        return oriented_interfaces(self.hop, self.info)


def oriented_interfaces(hop: HopField, info: InfoField) -> Tuple[int, int]:
    """(actual ingress, actual egress) given the travel direction."""
    if info.cons_dir:
        return hop.cons_ingress, hop.cons_egress
    return hop.cons_egress, hop.cons_ingress


#: Memo slots every :class:`PathMeta` reserves at construction.
_META_MEMO_SLOTS = ("_fingerprint", "_latency_key", "_hops_key", "_carbon_key")


@dataclass(frozen=True)
class PathMeta:
    """What an application sees about one usable path (snet-style).

    Carries the dataplane path plus metadata the end host uses for policy
    decisions: AS sequence, interface ids, a static latency estimate, and
    optional per-link attributes (carbon intensity for "green" routing,
    Section 4.7 of the paper).

    The fingerprint and the policy sort keys are pure functions of the
    (frozen) fields, so each is computed on first use and memoized on the
    instance; equality and hashing stay field-based, and
    ``dataclasses.replace`` copies start with an empty memo.
    """

    path: DataplanePath
    latency_estimate_s: float
    carbon_gco2_per_gb: float = 0.0
    measured_rtt_s: Optional[float] = None
    #: True when the daemon served this past its cache TTL because the
    #: refresh failed — usable, but the application should expect churn.
    stale: bool = False

    def __post_init__(self) -> None:
        # Reserve the memo slots at construction: CPython keeps attributes
        # every instance sets up front in compact shared-key storage, while
        # a memo first stored later would give each instance its own
        # ~400-byte ``__dict__`` (thousands of paths per world).
        for slot in _META_MEMO_SLOTS:
            object.__setattr__(self, slot, None)

    @property
    def fingerprint(self) -> str:
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = self.path.fingerprint()
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def latency_key(self) -> Tuple[float, str]:
        """Lowest-latency sort key: the measured RTT when known, else twice
        the static one-way estimate; ties broken by fingerprint."""
        key = self._latency_key
        if key is None:
            rtt = (
                self.measured_rtt_s
                if self.measured_rtt_s is not None
                else 2 * self.latency_estimate_s
            )
            key = (rtt, self.fingerprint)
            object.__setattr__(self, "_latency_key", key)
        return key

    def hops_key(self) -> Tuple[int, str]:
        """Shortest-path sort key: AS hops, ties broken by fingerprint."""
        key = self._hops_key
        if key is None:
            key = (self.path.num_as_hops(), self.fingerprint)
            object.__setattr__(self, "_hops_key", key)
        return key

    def carbon_key(self) -> Tuple[float, str]:
        """Green sort key: carbon intensity, ties broken by fingerprint."""
        key = self._carbon_key
        if key is None:
            key = (self.carbon_gco2_per_gb, self.fingerprint)
            object.__setattr__(self, "_carbon_key", key)
        return key

    @property
    def interfaces(self) -> Sequence[str]:
        return self.path.interface_ids()

    @property
    def as_sequence(self) -> List[IA]:
        return self.path.as_sequence()

    def disjointness(self, other: "PathMeta") -> float:
        """Fraction of distinct interfaces across the two paths.

        The paper (Section 5.5): number of distinct interfaces divided by
        the total number of interfaces of both paths. 1.0 = fully disjoint.
        """
        mine, theirs = self.interfaces, other.interfaces
        total = len(mine) + len(theirs)
        if total == 0:
            return 1.0
        shared = 0
        other_counts: dict = {}
        for ifid in theirs:
            other_counts[ifid] = other_counts.get(ifid, 0) + 1
        for ifid in mine:
            if other_counts.get(ifid, 0) > 0:
                other_counts[ifid] -= 1
                shared += 2  # the interface appears in both paths
        return (total - shared) / total

    def shared_interfaces(self, others: Iterable["PathMeta"]) -> int:
        """Number of my interface ids shared with any of ``others``."""
        other_ids = set()
        for other in others:
            other_ids.update(other.interfaces)
        return sum(1 for ifid in self.interfaces if ifid in other_ids)
