"""Memoized policy sort keys order paths exactly like the inline keys.

``PathMeta`` memoizes its fingerprint and the sort keys of the ordering
policies.  The reference keys below are the inline keys the policies used
before: every comparison recomputes them from the fields.  Over random
path lists — measured RTTs, ties, and ``stale=True`` copies that share a
path with their original — every policy must return the same objects in
the same order, and filling the memo must not change equality or hashing.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.endhost.policy import (
    GreenPolicy,
    LowestLatencyPolicy,
    PreferencePolicy,
    ShortestPolicy,
)
from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathMeta,
    PathSegmentHops,
)

KEY = SymmetricKey(b"q" * 32)


def reference_latency(meta):
    return (
        meta.measured_rtt_s
        if meta.measured_rtt_s is not None
        else 2 * meta.latency_estimate_s
    )


def reference_order(criteria, paths, reference=()):
    """The pre-memo key: every criterion recomputed from the fields."""

    def key(meta):
        parts = []
        for criterion in criteria:
            if criterion == "latency":
                parts.append(reference_latency(meta))
            elif criterion == "hops":
                parts.append(meta.path.num_as_hops())
            elif criterion == "disjointness":
                parts.append(meta.shared_interfaces(reference))
            elif criterion == "carbon":
                parts.append(meta.carbon_gco2_per_gb)
        parts.append(meta.path.fingerprint())
        return tuple(parts)

    return sorted(paths, key=key)


# Small value pools so ties on the leading criterion are common and the
# fingerprint tie-break decides.
latencies = st.sampled_from([0.001, 0.004, 0.004, 0.010, 0.25])
carbons = st.sampled_from([0.0, 5.0, 5.0, 30.0])
rtts = st.none() | st.sampled_from([0.002, 0.008, 0.008, 0.5])


@st.composite
def path_meta(draw):
    length = draw(st.integers(1, 5))
    asns = draw(st.lists(st.integers(1, 40), min_size=length,
                         max_size=length, unique=True))
    hops = tuple(
        HopField.create(
            IA(71, asn), KEY, 1000,
            cons_ingress=0 if index == 0 else index,
            cons_egress=0 if index == length - 1 else index + 1,
            beta=index,
        )
        for index, asn in enumerate(asns)
    )
    meta = PathMeta(
        path=DataplanePath((PathSegmentHops(InfoField(1000, 0, True), hops),)),
        latency_estimate_s=draw(latencies),
        carbon_gco2_per_gb=draw(carbons),
        measured_rtt_s=draw(rtts),
    )
    if draw(st.booleans()):
        # The daemon's stale-serve copy: same path, empty memo.
        meta = dataclasses.replace(meta, stale=True)
    return meta


@st.composite
def path_lists(draw):
    paths = draw(st.lists(path_meta(), max_size=10))
    # Stale copies of listed paths: equal keys, distinct objects.
    for index in draw(st.lists(st.integers(0, 9), max_size=3)):
        if index < len(paths):
            paths.append(dataclasses.replace(paths[index], stale=True))
    return draw(st.permutations(paths))


def same_objects(got, want):
    return [id(meta) for meta in got] == [id(meta) for meta in want]


@given(path_lists())
@settings(max_examples=200, deadline=None)
def test_sort_policies_match_inline_keys(paths):
    cases = [
        (ShortestPolicy(), ["hops"]),
        (LowestLatencyPolicy(), ["latency"]),
        (GreenPolicy(), ["carbon"]),
    ]
    for policy, criteria in cases:
        # Twice: the second call reads every key from a filled memo.
        for _ in range(2):
            assert same_objects(
                policy.order(paths), reference_order(criteria, paths)
            )


@given(
    path_lists(),
    st.lists(
        st.sampled_from(PreferencePolicy.AVAILABLE), min_size=1, max_size=4,
        unique=True,
    ),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_preference_policy_matches_inline_keys(paths, criteria, n_reference):
    reference = paths[:n_reference]
    policy = PreferencePolicy(",".join(criteria), reference=reference)
    for _ in range(2):
        assert same_objects(
            policy.order(paths), reference_order(criteria, paths, reference)
        )


@given(path_lists())
@settings(max_examples=100, deadline=None)
def test_memo_leaves_equality_and_hashing_alone(paths):
    fresh = [dataclasses.replace(meta) for meta in paths]
    hashes = [hash(meta) for meta in paths]
    for policy in (ShortestPolicy(), LowestLatencyPolicy(), GreenPolicy()):
        policy.order(paths)
    for meta, twin, before in zip(paths, fresh, hashes):
        assert meta.fingerprint == meta.path.fingerprint()
        assert hash(meta) == before == hash(twin)
        assert meta == twin and twin == meta
        assert repr(meta) == repr(twin)
        assert meta != dataclasses.replace(meta, stale=not meta.stale)
        fingerprint = meta.path.fingerprint()
        assert meta.latency_key() == (reference_latency(meta), fingerprint)
        assert meta.hops_key() == (meta.path.num_as_hops(), fingerprint)
        assert meta.carbon_key() == (meta.carbon_gco2_per_gb, fingerprint)
