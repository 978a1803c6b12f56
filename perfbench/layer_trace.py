"""Per-layer tracing for the end-to-end benchmark, installed from outside.

The program under test carries no benchmark hooks.  :func:`install` wraps
each layer's public entry points at the attribute its callers look up:
class attributes for methods, and every ``repro.*`` module attribute that
is bound to the original function (``repro.scion.network`` and
``repro.scion.control.segments`` import ``combine_paths`` and ``sign`` by
name, so patching only the defining module would miss them).

Each wrapped call records one span ``[name, start, end, parent, op]`` in
memory; the benchmark writes them out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Counters that
need a return value or a stats field are read by ``after`` hooks, which
only read.  While ``Tracer.op`` is None (output checks between ops) the
wrappers call straight through and record nothing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-name prefix -> the layer (module) it belongs to.
LAYERS = {
    "crypto": "scion.crypto",
    "beaconing": "scion.control.beaconing",
    "network": "scion.network",
    "path_server": "scion.control.path_server",
    "combinator": "scion.control.combinator",
    "dataplane": "scion.dataplane",
    "policy": "endhost.policy",
    "daemon": "endhost.daemon",
    "pan": "endhost.pan",
    "simulator": "netsim.simulator",
    "invariants": "netsim.invariants",
    "crucible": "netsim.crucible",
}

#: Per-layer metrics printed by a traced run: name -> unit.
PER_LAYER_METRICS = {
    "crypto.keygen.calls": "count",
    "crypto.keygen.self_s": "s",
    "crypto.sign.calls": "count",
    "crypto.sign.self_s": "s",
    "crypto.verify.calls": "count",
    "crypto.verify.self_s": "s",
    "beaconing.run.self_s": "s",
    "beaconing.beacons_sent": "count",
    "beaconing.accept_ratio": "ratio",
    "network.build.self_s": "s",
    "network.paths.calls": "count",
    "network.paths.self_s": "s",
    "network.paths.memo_hit_ratio": "ratio",
    "path_server.segments_for.calls": "count",
    "path_server.segments_for.self_s": "s",
    "path_server.revoke.calls": "count",
    "registry.version_bumps": "count",
    "combinator.combine.calls": "count",
    "combinator.combine.self_s": "s",
    "combinator.paths_per_call": "ratio",
    "dataplane.walk.calls": "count",
    "dataplane.walk.self_s": "s",
    "dataplane.walk.fail_ratio": "ratio",
    "policy.order.calls": "count",
    "policy.order.self_s": "s",
    "daemon.lookup.calls": "count",
    "daemon.lookup.self_s": "s",
    "daemon.cache_hit_ratio": "ratio",
    "daemon.revocations_received": "count",
    "pan.send.calls": "count",
    "pan.send.self_s": "s",
    "pan.paths_tried_per_send": "ratio",
    "simulator.run.self_s": "s",
    "simulator.events": "count",
    "invariants.check.self_s": "s",
    "invariants.checks_run": "count",
    "crucible.world.self_s": "s",
    "crucible.world.total_s": "s",
    "crucible.fault_events": "count",
    "trace.overhead_ratio": "ratio",
}


#: Op id of spans recorded while the workload sets up.
SETUP_OP = -1


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Op id stamped on new spans: SETUP_OP during setup, the op's id
        #: while an op runs, None while nothing should be recorded.
        self.op: Optional[int] = SETUP_OP
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------------

    def _wrap(
        self,
        name: Optional[str],
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                record = [name, 0.0, 0.0, stack[-1] if stack else -1, op]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
            if after is not None and op != SETUP_OP:
                after(self.counts, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function wherever a repro module binds it."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, "__dict__", {}).get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: Optional[str], **hooks) -> None:
        """Wrap a method (plain or classmethod) on its defining class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            wrapped = self._wrap(name, raw, **hooks)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------------

    def span_stats(self, timed: bool) -> Tuple[Dict[str, list], int]:
        """name -> [calls, total_s, self_s] over the spans of timed ops or
        of setup, plus the number of ``network.paths`` calls in that set
        that reached ``combine_paths``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        combined = {
            parent for name, _, _, parent, _ in spans
            if name == "combinator.combine" and parent >= 0
        }
        stats: Dict[str, list] = {}
        paths_misses = 0
        for index, (name, start, end, _, op) in enumerate(spans):
            if (op != SETUP_OP) != timed:
                continue
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
            if name == "network.paths" and index in combined:
                paths_misses += 1
        return stats, paths_misses

    def per_layer_metrics(self, overhead_ratio: float) -> Dict[str, float]:
        stats, paths_misses = self.span_stats(timed=True)
        counts = self.counts

        def calls(name: str) -> int:
            return stats.get(name, [0, 0.0, 0.0])[0]

        def self_s(name: str) -> float:
            return stats.get(name, [0, 0.0, 0.0])[2]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values: Dict[str, float] = {
            "crucible.world.total_s":
                stats.get("crucible.world", [0, 0.0, 0.0])[1],
        }
        for metric in PER_LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls(span)
            elif kind == "self_s":
                values[metric] = self_s(span)
        values.update({
            "beaconing.beacons_sent": counts["beaconing.beacons_sent"],
            "beaconing.accept_ratio": ratio(
                counts["beaconing.beacons_accepted"],
                counts["beaconing.beacons_sent"],
            ),
            "network.paths.memo_hit_ratio": ratio(
                calls("network.paths") - paths_misses, calls("network.paths")
            ),
            "registry.version_bumps": counts["registry.version_bumps"],
            "combinator.paths_per_call": ratio(
                counts["combinator.paths"], calls("combinator.combine")
            ),
            "dataplane.walk.fail_ratio": ratio(
                counts["dataplane.walk.failed"], calls("dataplane.walk")
            ),
            "daemon.cache_hit_ratio": ratio(
                counts["daemon.cache_hits"], calls("daemon.lookup")
            ),
            "daemon.revocations_received": counts["daemon.revocations_received"],
            "pan.paths_tried_per_send": ratio(
                counts["pan.paths_tried"], calls("pan.send")
            ),
            "simulator.events": counts["simulator.events"],
            "invariants.checks_run": counts["invariants.checks_run"],
            "crucible.fault_events": counts["crucible.fault_events"],
            "trace.overhead_ratio": overhead_ratio,
        })
        return {metric: values[metric] for metric in PER_LAYER_METRICS}

    def layer_shares(self, op_time_s: float) -> Dict[str, float]:
        """Layer -> share of timed op wall time spent in its own code."""
        stats, _ = self.span_stats(timed=True)
        shares: Dict[str, float] = defaultdict(float)
        for name, (_, _, own) in stats.items():
            shares[LAYERS[name.split(".")[0]]] += own / op_time_s
        return dict(shares)

    def table(self, op_time_s: float) -> str:
        """The per-layer table: timed calls/self time/share, setup beside."""
        timed, _ = self.span_stats(timed=True)
        setup, _ = self.span_stats(timed=False)
        lines = [
            f"{'layer':<26}{'span':<28}{'calls':>9}{'self_s':>11}"
            f"{'share':>8}{'total_s':>11}{'setup_calls':>13}"
            f"{'setup_self_s':>14}"
        ]
        names = sorted(set(timed) | set(setup),
                       key=lambda n: -timed.get(n, [0, 0.0, 0.0])[2])
        covered = 0.0
        for name in names:
            calls, total, own = timed.get(name, [0, 0.0, 0.0])
            s_calls, _, s_own = setup.get(name, [0, 0.0, 0.0])
            covered += own
            lines.append(
                f"{LAYERS[name.split('.')[0]]:<26}{name:<28}{calls:>9}"
                f"{own:>11.4f}{own / op_time_s:>8.1%}{total:>11.4f}"
                f"{s_calls:>13}{s_own:>14.4f}"
            )
        rest = op_time_s - covered
        lines.append(
            f"{'(outside spans)':<26}{'-':<28}{'':>9}{rest:>11.4f}"
            f"{rest / op_time_s:>8.1%}"
        )
        return "\n".join(lines)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _beaconing_stats(counts, args, result, state) -> None:
    stats = args[0].stats
    counts["beaconing.beacons_sent"] += stats.beacons_sent
    counts["beaconing.beacons_accepted"] += stats.beacons_accepted


def _delta(counter: str, read: Callable[[Any], float]):
    """before/after hooks adding how much ``read(self)`` grew in a call."""

    def before(args):
        return read(args[0])

    def after(counts, args, result, state):
        counts[counter] += read(args[0]) - state

    return {"before": before, "after": after}


def _count(counter: str, value: Callable[[Any], float]):
    def after(counts, args, result, state):
        counts[counter] += value(result)

    return {"after": after}


def _world_registry_version(counts, args, result, state) -> None:
    # A crucible world's registry starts at version 0, so its final
    # version is the number of bumps it saw.
    counts["registry.version_bumps"] += args[0].network.registry.version


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; undo with ``uninstall``."""
    from repro.endhost import daemon, pan, policy
    from repro.netsim import crucible, invariants, simulator
    from repro.scion import network
    from repro.scion.control import beaconing, combinator, path_server
    from repro.scion.crypto import rsa
    from repro.scion.dataplane import network as dataplane

    tracer.patch_method(rsa.RsaKeyPair, "generate", "crypto.keygen")
    tracer.patch_function(rsa, "sign", "crypto.sign")
    tracer.patch_function(rsa, "verify", "crypto.verify")
    tracer.patch_method(
        beaconing.BeaconingEngine, "run", "beaconing.run",
        after=_beaconing_stats,
    )
    tracer.patch_method(network.ScionNetwork, "__init__", "network.build")
    tracer.patch_method(network.ScionNetwork, "paths", "network.paths")
    tracer.patch_method(
        path_server.LocalPathServer, "segments_for", "path_server.segments_for"
    )
    tracer.patch_method(
        path_server.LocalPathServer, "revoke", "path_server.revoke"
    )
    tracer.patch_function(
        combinator, "combine_paths", "combinator.combine",
        **_count("combinator.paths", len),
    )
    tracer.patch_method(
        dataplane.ScionDataplane, "walk", "dataplane.walk",
        **_count("dataplane.walk.failed", lambda r: not r.success),
    )
    for cls in vars(policy).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, policy.PathPolicy)
            and cls is not policy.PathPolicy
            and "order" in cls.__dict__
        ):
            tracer.patch_method(cls, "order", "policy.order")
    tracer.patch_method(
        daemon.Daemon, "lookup", "daemon.lookup",
        **_delta("daemon.cache_hits", lambda d: d.stats.cache_hits),
    )
    tracer.patch_method(
        daemon.Daemon, "handle_revocation", None,
        **_delta("daemon.revocations_received",
                 lambda d: d.stats.revocations_received),
    )
    tracer.patch_method(
        pan.ScionSocket, "send_with_failover", "pan.send",
        **_count("pan.paths_tried", lambda r: r.paths_tried),
    )
    tracer.patch_method(
        simulator.Simulator, "run", "simulator.run",
        **_count("simulator.events", lambda r: r),
    )
    for attr in ("check_always", "check_eventually"):
        tracer.patch_method(
            invariants.InvariantChecker, attr, "invariants.check",
            **_delta("invariants.checks_run", lambda c: c.checks_run),
        )
    tracer.patch_method(crucible.CrucibleWorld, "__init__", "crucible.world")
    tracer.patch_method(
        crucible.CrucibleWorld, "stop", None, after=_world_registry_version,
    )
    tracer.patch_function(
        crucible, "run_schedule", "crucible.run",
        **_count("crucible.fault_events", lambda r: r.fault_events),
    )
