"""Live fault injection: apply a :class:`FaultPlan` to a real cluster.

The simulator has injected the paper's three degradation modes since the
first PR; this module brings them to the asyncio runtime so the same
:class:`~repro.cluster.faults.FaultPlan` drives real processes over real
sockets:

* **Stragglers** — a slowdown factor becomes a per-frame outbound delay
  inside the straggler's :class:`~repro.runtime.transport.AsyncioTransport`
  (:func:`send_delay_for`), so everything the slow replica says arrives late,
  exactly like a CPU- or link-degraded node.
* **Detectable crashes** — the :class:`ChaosController` SIGKILLs the
  replica's OS process at its scheduled time (and optionally restarts it);
  survivors detect the silence through the PBFT failure detector and rotate
  the crashed leader out via a view change.
* **Undetectable Byzantine abstention** — the abstaining replica keeps
  proposing and voting in the instances it *leads* but silently drops its
  consensus messages for every other instance
  (:func:`make_abstention_filter`), so no timeout ever fires yet every other
  instance must form quorums from the remaining ``2f + 1`` replicas.

Unlike the simulator, none of this is deterministic: crash times are wall
clock, view changes race real traffic, and two runs of the same plan will
not produce identical logs.  What must still hold — and what the chaos tests
assert — is the *distributed-systems* contract: surviving replicas converge
to identical state digests and clients keep completing with ``f + 1``
matching replies.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.cluster.faults import FaultPlan
from repro.errors import ConfigurationError
from repro.runtime.config import load_json_or_file
from repro.sb.pbft.messages import PBFTMessage

#: Outbound per-frame delay corresponding to slowdown factor 2.0 (seconds).
#: A slowdown of ``s`` maps to ``(s - 1) * STRAGGLER_UNIT_DELAY``; the
#: paper's 10x straggler therefore holds every frame for 45 ms — enough to
#: dominate localhost round trips without freezing the run.
STRAGGLER_UNIT_DELAY = 0.005


def send_delay_for(
    plan: FaultPlan, replica_id: int, *, unit: float = STRAGGLER_UNIT_DELAY
) -> float:
    """Outbound frame delay (seconds) for one replica under ``plan``."""
    slowdown = plan.slowdown_of(replica_id)
    return max(0.0, (slowdown - 1.0) * unit)


def abstaining_replicas(plan: FaultPlan, num_replicas: int) -> set[int]:
    """Replica ids that abstain under ``plan`` (the last ``k`` replicas).

    The paper deploys one SB instance per replica, so every replica leads
    somewhere and "abstain from instances you do not lead" is meaningful for
    any of them.  With fewer instances than replicas the low ids hold the
    initial leaderships, so the *highest* ids are picked — they abstain
    everywhere while the protocol-critical leaders stay honest, matching the
    Fig. 8 setup where quorums shrink but no failure detector fires.
    """
    count = plan.undetectable_faults
    if count <= 0:
        return set()
    if count > (num_replicas - 1) // 3:
        raise ConfigurationError(
            f"{count} abstaining replicas exceed f = {(num_replicas - 1) // 3} "
            f"for n = {num_replicas}; quorums would be unreachable"
        )
    return set(range(num_replicas - count, num_replicas))


def make_abstention_filter(replica: Any) -> Callable[[Any], bool]:
    """Outbound-message predicate implementing Byzantine abstention.

    Keeps every non-consensus message (client replies, control plane) and
    consensus messages for instances ``replica`` currently leads; drops
    consensus messages for all other instances.  Leadership is evaluated per
    message so the behaviour follows view changes.
    """

    def keep(message: Any) -> bool:
        if not isinstance(message, PBFTMessage):
            return True
        return message.instance in replica.led_instances()

    return keep


# -- WAN emulation specs ------------------------------------------------------

#: Named latency models ``FaultPlan.wan`` accepts (see ``net/latency.py``).
WAN_MODEL_NAMES = ("wan", "lan")


def parse_wan_spec(
    value: Any,
) -> str | tuple[tuple[float, ...], ...] | None:
    """Canonicalise a WAN spec: a model name, a delay matrix, or ``None``.

    Accepts the named models from ``net/latency.py`` (``"wan"``/``"lan"``),
    an explicit square one-way delay matrix (list/tuple of rows, JSON text,
    or an ``@file`` reference to JSON), or ``None``.  Returns the canonical
    hashable form: the name string or a tuple-of-tuples matrix.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip()
        if text in WAN_MODEL_NAMES:
            return text
        value = load_json_or_file(
            text,
            what="WAN matrix",
            invalid=f"WAN spec must be one of {WAN_MODEL_NAMES} or a JSON delay matrix",
        )
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError("WAN matrix must be a non-empty list of rows")
    matrix: list[tuple[float, ...]] = []
    for row in value:
        if not isinstance(row, (list, tuple)) or len(row) != len(value):
            raise ConfigurationError("WAN matrix must be square")
        try:
            cells = tuple(float(cell) for cell in row)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed WAN matrix row {row!r}: {exc}") from exc
        if any(cell < 0 for cell in cells):
            raise ConfigurationError("WAN matrix delays must be non-negative")
        matrix.append(cells)
    return tuple(matrix)


def wan_to_text(wan: str | tuple[tuple[float, ...], ...] | None) -> str | None:
    """Render a canonical WAN spec back to flag/JSON text (``None`` passes)."""
    if wan is None:
        return None
    if isinstance(wan, str):
        return wan
    # Compact: the text travels inside each replica's ``serve --config``
    # argument, which Linux caps at 128 KiB.
    return json.dumps([list(row) for row in wan], separators=(",", ":"))


def wan_delay_map(
    wan: str | tuple[tuple[float, ...], ...] | None,
    replica_id: int,
    num_replicas: int,
) -> dict[int, float]:
    """Per-destination one-way delays for one replica under a WAN spec.

    ``None`` (no emulation) maps to no delays.  Named models use the sim's
    region matrices with the same round-robin region assignment
    (``node_id % regions``); an explicit matrix is used verbatim with
    ``len(matrix)`` synthetic regions.  The self-delay (the matrix
    diagonal) is omitted: a replica does not talk to itself over the
    transport.
    """
    from repro.net.latency import LANLatencyModel, WANLatencyModel

    spec = parse_wan_spec(wan)
    if spec is None:
        return {}
    if spec == "lan":
        flat = LANLatencyModel().base_delay
        return {
            destination: flat
            for destination in range(num_replicas)
            if destination != replica_id
        }
    if isinstance(spec, str):
        model = WANLatencyModel()
    else:
        regions = tuple(f"region-{n}" for n in range(len(spec)))
        model = WANLatencyModel(regions=regions, matrix=spec)
    return {
        destination: model.base_delay(replica_id, destination)
        for destination in range(num_replicas)
        if destination != replica_id
    }


# -- fault plan (de)serialisation --------------------------------------------


def fault_plan_to_json(plan: FaultPlan) -> str:
    """Serialise a plan to the JSON shape ``fault_plan_from_json`` reads."""
    return json.dumps(
        {
            "stragglers": {str(k): v for k, v in sorted(plan.stragglers.items())},
            "crashes": {str(k): v for k, v in sorted(plan.crashes.items())},
            "restarts": {str(k): v for k, v in sorted(plan.restarts.items())},
            "churn": [list(cycle) for cycle in plan.churn],
            "partitions": [
                [at, [list(group) for group in groups], duration]
                for at, groups, duration in plan.partitions
            ],
            "oneway_drops": [list(entry) for entry in plan.oneway_drops],
            "wan": wan_to_text(plan.wan),
            "expect_stall": plan.expect_stall,
            "view_change_timeout": plan.view_change_timeout,
            "undetectable_faults": plan.undetectable_faults,
        },
        sort_keys=True,
    )


def fault_plan_from_json(
    text: str, *, default_view_change_timeout: float | None = None
) -> FaultPlan:
    """Parse a :class:`FaultPlan` from JSON text or an ``@file`` reference.

    Accepted keys (all optional): ``stragglers`` (replica -> slowdown),
    ``crashes`` (replica -> seconds), ``restarts`` (replica -> seconds),
    ``churn`` (list of ``[at, replica, downtime]`` crash/restart cycles),
    ``view_change_timeout``, ``undetectable_faults``.  Unknown keys are an
    error — a typo silently producing a fault-free plan would invalidate an
    entire experiment.  ``default_view_change_timeout`` applies when the JSON
    does not set one (the CLI threads its own flag through here).
    """
    data = load_json_or_file(text, what="fault plan")
    if not isinstance(data, dict):
        raise ConfigurationError("fault plan must be a JSON object")
    known = {
        "stragglers",
        "crashes",
        "restarts",
        "churn",
        "partitions",
        "oneway_drops",
        "wan",
        "expect_stall",
        "view_change_timeout",
        "undetectable_faults",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown fault plan keys: {', '.join(sorted(unknown))}"
        )

    def id_map(key: str) -> dict[int, float]:
        raw = data.get(key, {})
        if not isinstance(raw, dict):
            raise ConfigurationError(f"fault plan {key!r} must be an object")
        try:
            return {int(k): float(v) for k, v in raw.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed fault plan {key!r}: {exc}") from exc

    raw_churn = data.get("churn", [])
    if not isinstance(raw_churn, list):
        raise ConfigurationError("fault plan 'churn' must be a list")
    churn: list[tuple[float, int, float]] = []
    for entry in raw_churn:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigurationError(
                "each churn entry must be [at, replica, downtime]"
            )
        try:
            churn.append((float(entry[0]), int(entry[1]), float(entry[2])))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed churn entry {entry!r}: {exc}") from exc

    raw_partitions = data.get("partitions", [])
    if not isinstance(raw_partitions, list):
        raise ConfigurationError("fault plan 'partitions' must be a list")
    partitions: list[tuple[float, tuple[tuple[int, ...], ...], float]] = []
    for entry in raw_partitions:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigurationError(
                "each partition entry must be [at, [groups...], duration]"
            )
        at_raw, groups_raw, duration_raw = entry
        if not isinstance(groups_raw, (list, tuple)):
            raise ConfigurationError(
                "partition groups must be a list of replica-id lists"
            )
        try:
            groups = tuple(
                tuple(int(replica) for replica in group) for group in groups_raw
            )
            partitions.append((float(at_raw), groups, float(duration_raw)))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed partition entry {entry!r}: {exc}"
            ) from exc

    raw_oneway = data.get("oneway_drops", [])
    if not isinstance(raw_oneway, list):
        raise ConfigurationError("fault plan 'oneway_drops' must be a list")
    oneway_drops: list[tuple[float, int, int, float]] = []
    for entry in raw_oneway:
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ConfigurationError(
                "each oneway_drops entry must be [at, source, destination, duration]"
            )
        try:
            oneway_drops.append(
                (float(entry[0]), int(entry[1]), int(entry[2]), float(entry[3]))
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed oneway_drops entry {entry!r}: {exc}"
            ) from exc

    fallback_timeout = (
        default_view_change_timeout
        if default_view_change_timeout is not None
        else FaultPlan().view_change_timeout
    )
    plan = FaultPlan(
        stragglers=id_map("stragglers"),
        crashes=id_map("crashes"),
        restarts=id_map("restarts"),
        churn=tuple(churn),
        partitions=tuple(partitions),
        oneway_drops=tuple(oneway_drops),
        wan=parse_wan_spec(data.get("wan")),
        expect_stall=bool(data.get("expect_stall", False)),
        view_change_timeout=float(data.get("view_change_timeout", fallback_timeout)),
        undetectable_faults=int(data.get("undetectable_faults", 0)),
    )
    validate_fault_plan(plan)
    return plan


def partition_components(
    groups: tuple[tuple[int, ...], ...], num_replicas: int
) -> list[set[int]]:
    """Expand a partition's groups into the full component list.

    Replicas named in no explicit group form one implicit remainder
    component — ``groups=((3,),)`` at ``n = 4`` means "isolate replica 3
    from {0, 1, 2}".
    """
    components = [set(group) for group in groups]
    named = set().union(*components) if components else set()
    remainder = set(range(num_replicas)) - named
    if remainder:
        components.append(remainder)
    return components


def blocked_peers_for(
    replica_id: int,
    *,
    active_partitions: list[tuple[tuple[int, ...], ...]],
    active_oneways: set[tuple[int, int]],
    num_replicas: int,
) -> tuple[int, ...]:
    """Peer ids ``replica_id`` must not send to under the active rules.

    Symmetric partitions block both directions (each side computes the
    other as blocked); a one-way drop blocks only the source's sends, so
    the destination keeps talking back — the classic asymmetric-loss case.
    """
    blocked: set[int] = set()
    for groups in active_partitions:
        for component in partition_components(groups, num_replicas):
            if replica_id in component:
                blocked |= set(range(num_replicas)) - component
                break
    for source, destination in active_oneways:
        if source == replica_id:
            blocked.add(destination)
    blocked.discard(replica_id)
    return tuple(sorted(blocked))


def validate_fault_plan(plan: FaultPlan, num_replicas: int | None = None) -> None:
    """Reject plans the live runtime cannot execute coherently."""
    parse_wan_spec(plan.wan)
    for at_time, groups, duration in plan.partitions:
        if at_time < 0:
            raise ConfigurationError("partition start time is negative")
        if duration <= 0:
            raise ConfigurationError(
                f"partition at {at_time}s must heal after a positive duration"
            )
        if not groups or any(not group for group in groups):
            raise ConfigurationError(
                f"partition at {at_time}s needs at least one non-empty group"
            )
        seen: set[int] = set()
        for group in groups:
            overlap = seen & set(group)
            if overlap:
                raise ConfigurationError(
                    f"partition at {at_time}s lists replica "
                    f"{sorted(overlap)[0]} in more than one group"
                )
            seen |= set(group)
    ordered = sorted((at, at + duration) for at, _, duration in plan.partitions)
    for (start_a, end_a), (start_b, _) in zip(ordered, ordered[1:]):
        if start_b < end_a:
            raise ConfigurationError(
                f"partitions overlap: one starting at {start_b}s begins before "
                f"the heal at {end_a}s — merge them into a single rule"
            )
    for at_time, source, destination, duration in plan.oneway_drops:
        if at_time < 0:
            raise ConfigurationError("one-way drop start time is negative")
        if duration <= 0:
            raise ConfigurationError(
                f"one-way drop at {at_time}s must heal after a positive duration"
            )
        if source == destination:
            raise ConfigurationError(
                f"one-way drop at {at_time}s names replica {source} as both "
                f"source and destination"
            )
    for replica, slowdown in plan.stragglers.items():
        if slowdown < 1.0:
            raise ConfigurationError(
                f"straggler slowdown for replica {replica} must be >= 1.0"
            )
    for replica, at_time in plan.crashes.items():
        if at_time < 0:
            raise ConfigurationError(f"crash time for replica {replica} is negative")
    for replica, at_time in plan.restarts.items():
        crash_at = plan.crash_time_of(replica)
        if crash_at is None:
            raise ConfigurationError(
                f"restart scheduled for replica {replica} which never crashes"
            )
        if at_time <= crash_at:
            raise ConfigurationError(
                f"replica {replica} restarts at {at_time}s, "
                f"before its crash at {crash_at}s"
            )
    per_replica_cycles: dict[int, list[tuple[float, float]]] = {}
    for at_time, replica, downtime in plan.churn:
        if at_time < 0:
            raise ConfigurationError(
                f"churn crash time for replica {replica} is negative"
            )
        if downtime <= 0:
            raise ConfigurationError(
                f"churn downtime for replica {replica} must be positive"
            )
        per_replica_cycles.setdefault(replica, []).append((at_time, downtime))
    for replica, cycles in per_replica_cycles.items():
        cycles.sort()
        for (at_a, down_a), (at_b, _) in zip(cycles, cycles[1:]):
            if at_b <= at_a + down_a:
                raise ConfigurationError(
                    f"churn cycles for replica {replica} overlap: crash at "
                    f"{at_b}s falls before the restart at {at_a + down_a}s"
                )
    if num_replicas is not None:
        faulty = set(plan.crashes) | abstaining_replicas(plan, num_replicas)
        limit = (num_replicas - 1) // 3
        if len(faulty) > limit:
            raise ConfigurationError(
                f"plan makes {len(faulty)} replicas faulty but n = {num_replicas} "
                f"only tolerates f = {limit}"
            )
        # A partition must leave some component able to form quorums: at
        # most f replicas cut off from the largest side.  Plans that
        # deliberately deny every quorum must say so with expect_stall.
        for at_time, groups, duration in plan.partitions:
            components = partition_components(groups, num_replicas)
            isolated = num_replicas - max(len(c) for c in components)
            if isolated > limit and not plan.expect_stall:
                raise ConfigurationError(
                    f"partition at {at_time}s cuts {isolated} replicas off the "
                    f"largest component but n = {num_replicas} only tolerates "
                    f"f = {limit}; mark the plan expect_stall to run it anyway"
                )
        # Churn and partition victims are only transiently unavailable; what
        # must stay within f is the *concurrently* unavailable count at any
        # instant — a partition minority composing with a churn downtime can
        # deny quorums even when each alone would not.
        edges: list[tuple[float, int]] = []
        for at_time, _, downtime in plan.churn:
            edges.append((at_time, 1))
            edges.append((at_time + downtime, -1))
        if not plan.expect_stall:
            for at_time, groups, duration in plan.partitions:
                components = partition_components(groups, num_replicas)
                isolated = num_replicas - max(len(c) for c in components)
                if isolated > 0:
                    edges.append((at_time, isolated))
                    edges.append((at_time + duration, -isolated))
        if edges:
            concurrent = peak = 0
            for _, delta in sorted(edges):
                concurrent += delta
                peak = max(peak, concurrent)
            if len(faulty) + peak > limit:
                raise ConfigurationError(
                    f"plan takes {len(faulty) + peak} replicas down at once "
                    f"but n = {num_replicas} only tolerates f = {limit}"
                )
        churn_replicas = [replica for _, replica, _ in plan.churn]
        partition_replicas = [
            replica for _, groups, _ in plan.partitions for group in groups
            for replica in group
        ]
        oneway_replicas = [
            replica for _, source, destination, _ in plan.oneway_drops
            for replica in (source, destination)
        ]
        named = (
            list(plan.stragglers)
            + list(plan.crashes)
            + churn_replicas
            + partition_replicas
            + oneway_replicas
        )
        for replica in named:
            if not 0 <= replica < num_replicas:
                raise ConfigurationError(
                    f"fault plan names replica {replica} but the cluster has "
                    f"{num_replicas} replicas"
                )


# -- scheduled process faults -------------------------------------------------


@dataclass
class ChaosEvent:
    """One executed fault action (for reports and assertions)."""

    at: float
    action: str  # "crash" | "restart" | "partition" | "heal" | "drop" | "undrop"
    #: Replica id for process actions; the plan-rule index for link actions.
    replica: int
    #: Human-readable description for link actions (empty for process ones).
    label: str = ""

    def describe(self) -> str:
        """Render the event for logs and console output."""
        if self.label:
            return self.label
        return f"{self.action} replica {self.replica}"


class ChaosController:
    """Execute a plan's scheduled crash/restart actions against a cluster.

    The controller is deliberately poll-driven (:meth:`poll` executes every
    action whose time has come), so the CLI supervisor loop, asyncio chaos
    runs (:meth:`run`) and unit tests with a fake cluster can all drive it.
    Times are seconds relative to whenever the caller starts polling.
    """

    def __init__(self, cluster: Any, plan: FaultPlan) -> None:
        validate_fault_plan(plan)
        self.cluster = cluster
        self.plan = plan
        self.events: list[ChaosEvent] = []
        #: Loop time :meth:`run` started polling at (``None`` until then);
        #: ``started_at + event.at`` places events on the shared clock, the
        #: axis the phase-window SLO split uses.
        self.started_at: float | None = None
        #: Replicas intentionally down right now (``cluster.check()`` hygiene:
        #: a chaos-killed process is not an unexpected exit).
        self.down: set[int] = set()
        #: Groups of currently-active symmetric partitions (indexed rules).
        self._active_partitions: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: Currently-active one-way ``(source, destination)`` drops.
        self._active_oneways: set[tuple[int, int]] = set()
        actions = [(at, "crash", replica) for replica, at in plan.crashes.items()]
        actions += [(at, "restart", replica) for replica, at in plan.restarts.items()]
        # Churn cycles expand into the same crash/restart action stream.
        for at, replica, downtime in plan.churn:
            actions.append((at, "crash", replica))
            actions.append((at + downtime, "restart", replica))
        # Partition/one-way rules expand into apply + heal pairs; the third
        # tuple slot carries the rule index instead of a replica id.
        for index, (at, _, duration) in enumerate(plan.partitions):
            actions.append((at, "partition", index))
            actions.append((at + duration, "heal", index))
        for index, (at, _, _, duration) in enumerate(plan.oneway_drops):
            actions.append((at, "drop", index))
            actions.append((at + duration, "undrop", index))
        # Sort by time; at equal times crashes execute before restarts only
        # if scheduled earlier, which validate_fault_plan already guarantees.
        self._pending = sorted(actions)

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled action has been executed."""
        return not self._pending

    def _num_replicas(self) -> int:
        """Cluster size, for expanding partition groups into blocked sets."""
        spec = getattr(self.cluster, "spec", None)
        if spec is not None:
            return int(spec.num_replicas)
        endpoints = getattr(self.cluster, "endpoints", None)
        if endpoints:
            return len(endpoints)
        named = [0]
        for _, groups, _ in self.plan.partitions:
            named.extend(replica for group in groups for replica in group)
        for _, source, destination, _ in self.plan.oneway_drops:
            named.extend((source, destination))
        return max(named) + 1

    def _push_link_updates(self) -> None:
        """Retarget every live replica's blocked-peer set from active rules.

        Each replica receives the *absolute* set it must not send to, so
        overlapping rules and heals compose idempotently: applying the same
        set twice is harmless and a heal simply shrinks the set.  Down
        replicas are skipped (nothing to configure); a restarted replica
        comes back with an empty blocked set, which matches the semantics —
        its outbound frames were dropped at the senders all along.
        """
        from repro.runtime.control import LinkUpdate

        num_replicas = self._num_replicas()
        active_partitions = list(self._active_partitions.values())
        for replica in range(num_replicas):
            if replica in self.down:
                continue
            blocked = blocked_peers_for(
                replica,
                active_partitions=active_partitions,
                active_oneways=self._active_oneways,
                num_replicas=num_replicas,
            )
            try:
                self.cluster.send_control(replica, LinkUpdate(blocked=blocked))
            except OSError:
                # A replica that died between check() and here; its outbound
                # rules become moot and unexpected_exits() will report it.
                continue

    def _execute_action(self, elapsed: float, action: str, replica: int) -> ChaosEvent:
        """Execute one due action (shared by the sync and async drivers).

        For crashes the replica joins :attr:`down` *before* the SIGKILL:
        anyone observing ``cluster.check()`` concurrently (the async driver
        runs kills in a worker thread) must already see the exit as
        intentional, or a planned crash would be misreported as unexpected.
        """
        label = ""
        if action == "crash":
            self.down.add(replica)
            self.cluster.kill_replica(replica)
        elif action == "restart":
            self.cluster.restart_replica(replica)
            self.down.discard(replica)
            if self._active_partitions or self._active_oneways:
                # The fresh process starts with an empty blocked set; re-push
                # so a restart inside a partition window stays partitioned.
                self._push_link_updates()
        elif action == "partition":
            at, groups, duration = self.plan.partitions[replica]
            self._active_partitions[replica] = groups
            self._push_link_updates()
            sides = " | ".join(
                "{%s}" % ",".join(str(r) for r in sorted(component))
                for component in partition_components(groups, self._num_replicas())
            )
            label = f"partition {sides}"
        elif action == "heal":
            self._active_partitions.pop(replica, None)
            self._push_link_updates()
            label = f"heal partition #{replica}"
        elif action == "drop":
            _, source, destination, _ = self.plan.oneway_drops[replica]
            self._active_oneways.add((source, destination))
            self._push_link_updates()
            label = f"drop {source}->{destination}"
        elif action == "undrop":
            _, source, destination, _ = self.plan.oneway_drops[replica]
            self._active_oneways.discard((source, destination))
            self._push_link_updates()
            label = f"undrop {source}->{destination}"
        else:  # pragma: no cover - construction guarantees known actions
            raise ValueError(f"unknown chaos action: {action!r}")
        event = ChaosEvent(at=elapsed, action=action, replica=replica, label=label)
        self.events.append(event)
        return event

    def poll(self, elapsed: float) -> list[ChaosEvent]:
        """Execute every action due at or before ``elapsed`` seconds."""
        fired: list[ChaosEvent] = []
        while self._pending and self._pending[0][0] <= elapsed:
            _, action, replica = self._pending.pop(0)
            fired.append(self._execute_action(elapsed, action, replica))
        return fired

    def unexpected_exits(self) -> list[int]:
        """Replicas that died without the plan asking them to."""
        return [replica for replica in self.cluster.check() if replica not in self.down]

    def unfired_actions(self) -> list[tuple[float, str, int]]:
        """Scheduled ``(at, action, replica)`` actions that never executed."""
        return list(self._pending)

    def episodes(self) -> list[tuple[float, float | None, str]]:
        """Executed fault episodes as ``(start, end, label)`` intervals.

        Times are relative to the controller start (the same axis as
        :attr:`ChaosEvent.at`).  Point faults pair up with their closing
        action — crash with restart, partition with heal, drop with undrop;
        an episode whose closing action never fired gets ``end=None`` (still
        open when the run finished).  Feeds the per-fault-event phase
        windows (:func:`repro.obs.slo.fault_episode_windows`).
        """
        episodes: list[tuple[float, float | None, str]] = []
        open_index: dict[tuple[str, int], int] = {}
        closers = {"restart": "crash", "heal": "partition", "undrop": "drop"}
        for event in self.events:
            if event.action in ("crash", "partition", "drop"):
                open_index[(event.action, event.replica)] = len(episodes)
                episodes.append((event.at, None, event.describe()))
            elif event.action in closers:
                key = (closers[event.action], event.replica)
                index = open_index.pop(key, None)
                if index is not None:
                    start, _, label = episodes[index]
                    episodes[index] = (start, event.at, label)
        return episodes

    async def run(self, *, poll_interval: float = 0.05) -> None:
        """Poll on the event loop until every scheduled action has run.

        Process kills are executed in a worker thread — SIGKILL plus the
        reaping ``wait()`` would otherwise stall the loop driving the load
        generator.
        """
        loop = asyncio.get_running_loop()
        started = self.started_at = loop.time()
        while self._pending:
            await asyncio.sleep(poll_interval)
            elapsed = loop.time() - started
            while self._pending and self._pending[0][0] <= elapsed:
                _, action, replica = self._pending.pop(0)
                await asyncio.to_thread(self._execute_action, elapsed, action, replica)


# -- one-shot chaos experiment ------------------------------------------------


@dataclass
class ChaosRunResult:
    """Everything a chaos run produced."""

    report: Any  # LoadReport (kept Any to avoid importing loadgen eagerly)
    events: list[ChaosEvent] = field(default_factory=list)
    unexpected_exits: list[int] = field(default_factory=list)
    #: Scheduled actions the run ended before reaching.  Non-empty means the
    #: measurement does NOT cover the requested fault plan (e.g. a crash at
    #: t=10s against a load that finished at t=3s) — treated as a failure,
    #: because "survived the fault" must never be reported for a fault that
    #: was never injected.
    unfired_actions: list[tuple[float, str, int]] = field(default_factory=list)

    @property
    def view_changes(self) -> int:
        """View changes observed across the surviving replicas."""
        return sum(self.report.view_changes.values())

    @property
    def ok(self) -> bool:
        """Liveness and safety summary: progress, agreement, no surprises."""
        consistency = getattr(self.report, "consistency", None)
        return (
            self.report.metrics.committed > 0
            and self.report.digests_agree
            and not self.unexpected_exits
            and not self.unfired_actions
            and (consistency is None or consistency.ok)
        )

    def lines(self) -> list[str]:
        out = []
        for event in self.events:
            out.append(f"chaos: {event.describe()} @ {event.at:.2f}s")
        for at, action, target in self.unfired_actions:
            out.append(
                f"chaos: ERROR {action} ({target}) scheduled at "
                f"{at:.2f}s never fired — the run ended first, so the "
                f"measurement does not cover the requested plan (run fails); "
                f"extend the load (more transactions / lower rate)"
            )
        out.extend(self.report.lines())
        if self.report.view_changes:
            total = self.view_changes
            detail = ", ".join(
                f"r{replica}={count}"
                for replica, count in sorted(self.report.view_changes.items())
            )
            out.append(f"view changes         : {total} ({detail})")
        if self.unexpected_exits:
            out.append(f"UNEXPECTED replica exits: {self.unexpected_exits}")
        return out


async def run_chaos(cluster_spec, load_config) -> ChaosRunResult:
    """Run one fault-injected load experiment against a fresh local cluster.

    Starts the cluster described by ``cluster_spec`` (whose ``faults`` plan
    configures stragglers and abstainers inside the replica processes),
    executes scheduled crashes/restarts concurrently with the load generator,
    and returns the combined result.  The cluster is always torn down.
    """
    from repro.obs.slo import (
        StatusSample,
        check_consistency,
        compute_phase_slos,
        fault_episode_windows,
    )
    from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
    from repro.runtime.cluster import LocalCluster
    from repro.runtime.loadgen import LoadGenerator

    cluster = LocalCluster(cluster_spec)
    if (
        cluster.run_dir is not None
        and cluster_spec.trace_sample > 0
        and cluster_spec.obs_enabled
        and load_config.trace_file is None
    ):
        # The replicas trace into the run directory; give the client's span
        # events a home there too so stitched timelines are complete.
        load_config = replace(
            load_config,
            trace_file=str(cluster.run_dir / "client" / "trace.jsonl"),
            trace_sample=cluster_spec.trace_sample,
        )
    await asyncio.to_thread(cluster.start)
    controller = ChaosController(cluster, cluster_spec.faults)
    chaos_task = asyncio.create_task(controller.run())
    loop = asyncio.get_running_loop()
    #: Mid-run (time, cumulative view changes) samples for per-phase deltas.
    view_change_samples: list[tuple[float, int]] = []
    #: Per-replica (time, committed, frontier, digest) samples: the run log
    #: the client-side staleness and monotonicity checkers read.
    status_samples: list[StatusSample] = []
    poll_stop = asyncio.Event()

    async def poll_view_changes() -> None:
        probe = OrthrusClient(
            list(cluster.endpoints),
            ClientConfig(client_id=load_config.client.client_id + 1, timeout=2.0),
        )
        try:
            await probe.connect(require_all=False)
        except (ClientError, OSError):
            return
        try:
            while not poll_stop.is_set():
                try:
                    statuses = await probe.cluster_status()
                    now = loop.time()
                    view_change_samples.append(
                        (now, sum(s.view_changes for s in statuses))
                    )
                    status_samples.extend(
                        StatusSample(
                            at=now,
                            replica=s.replica,
                            committed=s.committed,
                            frontier=tuple(s.delivered_frontier),
                            digest=s.state_digest,
                        )
                        for s in statuses
                    )
                except (ClientError, OSError):
                    pass
                try:
                    await asyncio.wait_for(poll_stop.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
        finally:
            await probe.close()

    poll_task = asyncio.create_task(poll_view_changes())
    try:
        generator = LoadGenerator(list(cluster.endpoints), load_config)
        report = await generator.run()
        poll_stop.set()
        await poll_task
        # Monotonicity + staleness over the run log: a planned restart is an
        # allowed committed-counter reset (a fresh process starts at zero),
        # everything else must be monotone; settled digests come from the
        # load generator's final settlement probe.
        restarts_at = [
            (controller.started_at + e.at, e.replica)
            for e in controller.events
            if e.action == "restart" and controller.started_at is not None
        ]
        report.consistency = check_consistency(
            status_samples,
            final_digests=report.state_digests,
            resets=restarts_at,
        )
        # Split the run into per-fault-event phases (pre, then during/post
        # around *each* episode, not one global window).  Episode times are
        # relative to the controller's start; the settle margin keeps the
        # failure-detector/view-change aftermath inside "during".
        if controller.started_at is not None and controller.events:
            base = controller.started_at
            episodes = [
                (
                    base + start,
                    report.ended_at if end is None else base + end,
                    label,
                )
                for start, end, label in controller.episodes()
            ]
            windows = fault_episode_windows(
                report.started_at,
                report.ended_at,
                episodes,
                settle=cluster_spec.view_change_timeout,
            )
            report.phases = compute_phase_slos(
                windows,
                generator.collector.latency.timelines(),
                view_change_samples=view_change_samples,
                regression_times=report.consistency.regression_times,
            )
        return ChaosRunResult(
            report=report,
            events=list(controller.events),
            unexpected_exits=controller.unexpected_exits(),
            unfired_actions=controller.unfired_actions(),
        )
    finally:
        poll_stop.set()
        for task in (poll_task, chaos_task):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await asyncio.to_thread(cluster.stop)
