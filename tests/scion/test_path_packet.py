"""Tests for dataplane paths and the SCION packet wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.addr import IA, HostAddr
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.mac import MAC_LEN
from repro.scion.packet import (
    KIND_SCMP,
    PacketError,
    ScionPacket,
    UnderlayFrame,
)
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathError,
    PathMeta,
    PathSegmentHops,
    oriented_interfaces,
)

KEY = SymmetricKey(b"k" * 32)
TS = 5000


def hop(ia_text, ingress, egress, beta=1):
    return HopField.create(
        IA.parse(ia_text), KEY, TS, cons_ingress=ingress,
        cons_egress=egress, beta=beta,
    )


def two_segment_path():
    up = PathSegmentHops(
        InfoField(TS, 1, cons_dir=False),
        hops=(hop("71-1", 0, 5), hop("71-100", 3, 0)),
    )
    down = PathSegmentHops(
        InfoField(TS, 2, cons_dir=True),
        hops=(hop("71-1", 0, 7), hop("71-200", 4, 0)),
    )
    return DataplanePath((up, down))


class TestPathStructure:
    def test_forwarding_order_reverses_up_segments(self):
        path = two_segment_path()
        ias = [str(h.ia) for h, _ in path.hops()]
        assert ias == ["71-100", "71-1", "71-1", "71-200"]

    def test_as_sequence_dedups_joint(self):
        path = two_segment_path()
        assert [str(ia) for ia in path.as_sequence()] == ["71-100", "71-1", "71-200"]
        assert path.num_as_hops() == 3

    def test_src_dst(self):
        path = two_segment_path()
        assert str(path.src_ia) == "71-100"
        assert str(path.dst_ia) == "71-200"

    def test_oriented_interfaces(self):
        h = hop("71-1", 3, 5)
        fwd = InfoField(TS, 1, cons_dir=True)
        rev = InfoField(TS, 1, cons_dir=False)
        assert oriented_interfaces(h, fwd) == (3, 5)
        assert oriented_interfaces(h, rev) == (5, 3)

    def test_fingerprint_stable_and_distinct(self):
        p1, p2 = two_segment_path(), two_segment_path()
        assert p1.fingerprint() == p2.fingerprint()
        other = DataplanePath((
            PathSegmentHops(InfoField(TS, 1, False),
                            (hop("71-1", 0, 9), hop("71-100", 3, 0))),
        ))
        assert other.fingerprint() != p1.fingerprint()

    def test_segment_count_limits(self):
        seg = PathSegmentHops(InfoField(TS, 1, True), (hop("71-1", 0, 1),))
        with pytest.raises(PathError):
            DataplanePath(())
        with pytest.raises(PathError):
            DataplanePath((seg,) * 4)

    def test_forwarding_plan_marks_boundaries(self):
        plan = two_segment_path().forwarding_plan()
        assert [r.is_seg_first for r in plan] == [True, False, True, False]
        assert [r.is_seg_last for r in plan] == [False, True, False, True]
        assert [r.seg_index for r in plan] == [0, 0, 1, 1]

    def test_min_expiry(self):
        path = two_segment_path()
        assert path.min_expiry() == TS + 24 * 3600


class TestPathMeta:
    def meta(self, path):
        return PathMeta(path=path, latency_estimate_s=0.05)

    def test_disjointness_identical_paths_is_zero(self):
        m = self.meta(two_segment_path())
        assert m.disjointness(m) == pytest.approx(0.0)

    def test_disjointness_fully_distinct_is_one(self):
        m1 = self.meta(two_segment_path())
        other = DataplanePath((
            PathSegmentHops(InfoField(TS, 3, True),
                            (hop("71-9", 0, 8), hop("71-300", 2, 0))),
        ))
        assert m1.disjointness(self.meta(other)) == pytest.approx(1.0)

    def test_shared_interfaces(self):
        m = self.meta(two_segment_path())
        assert m.shared_interfaces([m]) == len(m.interfaces)
        assert m.shared_interfaces([]) == 0


class TestPacketWireFormat:
    def make_packet(self, **kwargs):
        defaults = dict(
            src=HostAddr(IA.parse("71-100"), "10.0.0.1", 4001),
            dst=HostAddr(IA.parse("71-200"), "10.0.0.2", 4002),
            path=two_segment_path(),
            payload=b"hello sciera",
        )
        defaults.update(kwargs)
        return ScionPacket(**defaults)

    def test_encode_decode_round_trip(self):
        packet = self.make_packet()
        decoded = ScionPacket.decode(packet.encode())
        assert decoded.src == packet.src
        assert decoded.dst == packet.dst
        assert decoded.payload == packet.payload
        assert decoded.path.fingerprint() == packet.path.fingerprint()
        assert decoded.curr_hop == packet.curr_hop

    def test_hop_pointer_walks_the_forwarding_plan(self):
        packet = self.make_packet()
        hops = packet.path.hops()
        assert packet.total_hops() == len(hops) == 4
        for index, expected in enumerate(hops):
            assert packet.current() == expected
            assert packet.at_destination_as() == (index == len(hops) - 1)
            packet.advance()
        with pytest.raises(PacketError, match="out of range"):
            packet.current()

    def test_round_trip_preserves_kind_and_pointer(self):
        packet = self.make_packet(kind=KIND_SCMP, curr_hop=2)
        decoded = ScionPacket.decode(packet.encode())
        assert decoded.kind == KIND_SCMP
        assert decoded.curr_hop == 2

    def test_truncated_packet_rejected(self):
        raw = self.make_packet().encode()
        with pytest.raises(PacketError):
            ScionPacket.decode(raw[: len(raw) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(PacketError):
            ScionPacket.decode(b"\xff" * 40)

    def test_reversed_packet_swaps_endpoints_and_flips_segments(self):
        packet = self.make_packet()
        reply = packet.reversed()
        assert reply.src == packet.dst
        assert reply.dst == packet.src
        assert reply.curr_hop == 0
        # The reply visits the ASes in reverse order.
        fwd = [str(ia) for ia in packet.path.as_sequence()]
        rev = [str(ia) for ia in reply.path.as_sequence()]
        assert rev == list(reversed(fwd))

    def test_double_reverse_is_identity_on_route(self):
        packet = self.make_packet()
        twice = packet.reversed().reversed()
        assert twice.path.fingerprint() == packet.path.fingerprint()

    def test_underlay_frame_size(self):
        frame = UnderlayFrame("10.0.0.1", "10.0.0.2", 40000,
                              UnderlayFrame.DISPATCHER_PORT, b"x" * 100)
        assert frame.size_bytes() == 128


@given(
    payload=st.binary(max_size=200),
    curr_hop=st.integers(0, 3),
    src_port=st.integers(0, 65535),
)
@settings(max_examples=50, deadline=None)
def test_packet_round_trip_property(payload, curr_hop, src_port):
    packet = ScionPacket(
        src=HostAddr(IA.parse("71-100"), "192.168.1.10", src_port),
        dst=HostAddr(IA.parse("64-559"), "10.1.2.3", 443),
        path=two_segment_path(),
        payload=payload,
        curr_hop=curr_hop,
    )
    decoded = ScionPacket.decode(packet.encode())
    assert decoded == packet
