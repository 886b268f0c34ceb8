"""Fault injection, fault universes, and the reconfiguration controller.

Wires the pieces together the way a real machine would: a
:class:`FaultScenario` schedules node failures (and repairs) at given
cycles; the :class:`ReconfigurationController` reacts by recomputing the
paper's monotone remap and re-issuing routes, so traffic injected after
the fault flows at full speed again.  A spare-less baseline controller
(:class:`DetourController`) reroutes inside the bare target graph instead,
exhibiting the degradation the paper's introduction warns about.

Concrete schedules are one *realization* of a **fault universe**: the
:data:`FAULT_MODELS` registry maps declarative model descriptions —
``{"name": "iid", "p": 0.9}`` and friends — to seeded generators that
draw a :class:`FaultScenario` from an RNG.  Four models ship:

* ``fixed`` — wraps a literal ``(cycle, node)`` schedule (plus optional
  repairs); realizes to exactly those events, bit-identical to the
  legacy ``faults=`` tuples.
* ``iid`` — the random node fault model of the dependability
  literature: every node fails independently with probability
  ``1 - p`` (``p`` is the survival probability), each failure's arrival
  cycle drawn uniformly over a window.
* ``burst`` — correlated regional failure: a uniformly drawn seed node
  plus its radius-``r`` graph neighborhood all fail, arrival cycles
  drawn within a window.
* ``churn`` — failures paired with scheduled repairs: nodes fail as in
  ``iid`` and return to service after a geometric downtime
  (``node_repair`` events), over one or more rounds — so the same node
  can fail, heal, and fail again, exercising the repair path and the
  per-epoch detour-table invalidation hard.

Use :func:`validate_fault_model` to canonicalize a model mapping (raises
:class:`~repro.errors.ParameterError` on unknown names or bad
parameters) and :func:`realize_fault_model` to draw a scenario; the
experiment spec layer (:class:`repro.experiments.ExperimentSpec`) does
both, deriving each Monte-Carlo replica's RNG from
``(spec.seed, replica_index)`` so every realization is reproducible.

Fault timing is honest: the workload driver advances the simulator one
cycle at a time and fires every scheduled event at exactly the cycle it
comes due — including in the middle of draining a batch, where a failing
node takes its queued packets down with it (the dynamic-dependability
regime; contrast with firing faults only at batch boundaries, which
silently postpones them).  ``fault_log`` records the ``(cycle, node)``
pairs as they actually fired (``repair_log`` likewise for repairs), so
tests can pin the timeline.

Both controllers drive any of the simulation engines: ``engine="object"``
(:class:`NetworkSimulator`, one Python object per packet),
``engine="batch"`` (:class:`BatchEngine`, vectorized structure-of-arrays
— use it for heavy traffic) or ``engine="sharded"``
(:class:`repro.simulator.shard_driver.ShardedEngine`, multi-process on
top of the batch engine; fault timing coarsens to batch boundaries).
The object and batch engines are golden-tested semantic twins; the
sharded engine is bit-identical whenever no fault fires mid-drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.fault_tolerant import ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import ParameterError, SimulationError
from repro.registry import Registry
from repro.routing.fault_routing import (
    lifted_routes_batch,
    survivor_route_table,
)
from repro.routing.shift_register import shift_route
from repro.simulator.engines import make_engine
from repro.simulator.events import EventQueue
from repro.simulator.metrics import RunStats

__all__ = [
    "CONTROLLERS",
    "FAULT_MODELS",
    "FaultScenario",
    "ReconfigurationController",
    "DetourController",
    "realize_fault_model",
    "validate_fault_model",
]

#: Registry of fault-controller builders with the uniform signature
#: ``(m, h, k, *, engine, link_capacity, workers) -> controller``
#: — the experiment spec layer builds controllers through it, and a new
#: strategy (a different spare layout, an adaptive router) registers here
#: instead of growing another string switch.
CONTROLLERS = Registry("controller")

#: Registry of fault-universe generators: ``name -> realize(params, *,
#: n, cycles, rng, graph) -> FaultScenario``.  Each entry also carries a
#: ``normalize(params) -> params`` validator (attached by
#: :func:`_normalizes`) that canonicalizes JSON-shaped parameters and
#: raises :class:`~repro.errors.ParameterError` on bad ones — the spec
#: layer calls it at construction, so a typo'd model never reaches a
#: worker.  Registering a new universe is one decorated function.
FAULT_MODELS = Registry("fault model")


@dataclass
class FaultScenario:
    """A deterministic control-event schedule: ``(cycle, physical_node)``
    failure pairs in ``node_faults``, plus optional ``(cycle, node)``
    repair pairs in ``node_repairs`` returning failed nodes to service.
    """

    node_faults: list[tuple[int, int]] = field(default_factory=list)
    node_repairs: list[tuple[int, int]] = field(default_factory=list)

    def schedule_into(self, q: EventQueue) -> None:
        """Push every fault onto an event queue as a ``"node_fault"``
        event and every repair as a ``"node_repair"`` event.  Within a
        cycle, repairs fire before faults (so a churn realization can
        repair a node and re-fail it on the same cycle) and each kind
        keeps its list order — pure-fault scenarios schedule exactly as
        they always did."""
        events = [
            (int(c), 0, "node_repair", int(v)) for c, v in self.node_repairs
        ] + [
            (int(c), 1, "node_fault", int(v)) for c, v in self.node_faults
        ]
        events.sort(key=lambda e: (e[0], e[1]))  # stable within (cycle, kind)
        for cycle, _, kind, node in events:
            q.schedule(cycle, kind, node)

    @property
    def fault_count(self) -> int:
        """Number of *distinct* nodes that ever fail (a churn schedule
        may fail the same node more than once — that still occupies one
        spare at a time, not two)."""
        return len({int(v) for _, v in self.node_faults})


# ---------------------------------------------------------------------------
# fault universes: declarative models realized into concrete scenarios
# ---------------------------------------------------------------------------

def _normalizes(normalize):
    """Attach a ``normalize(params) -> params`` validator to a registered
    fault-model realizer (decorator; compose under the registry entry)."""
    def deco(realize):
        realize.normalize = normalize
        return realize
    return deco


def _norm_pairs(name: str, key: str, value) -> list[list[int]]:
    """Canonicalize a ``[[cycle, node], ...]`` parameter (JSON-shaped)."""
    try:
        out = [[int(c), int(v)] for c, v in value]
    except (TypeError, ValueError):
        raise ParameterError(
            f"fault model {name!r}: {key} must be a list of "
            f"[cycle, node] pairs, got {value!r}"
        ) from None
    for c, _ in out:
        if c < 0:
            raise ParameterError(
                f"fault model {name!r}: {key} cycles must be >= 0, got {c}"
            )
    return out


def _norm_window(name: str, value) -> list[int]:
    """Canonicalize a ``[lo, hi)`` cycle window parameter."""
    try:
        lo, hi = (int(x) for x in value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"fault model {name!r}: window must be a [lo, hi) cycle pair, "
            f"got {value!r}"
        ) from None
    if not 0 <= lo < hi:
        raise ParameterError(
            f"fault model {name!r}: window needs 0 <= lo < hi, "
            f"got [{lo}, {hi})"
        )
    return [lo, hi]


def _norm_probability(name: str, params: dict) -> float:
    if "p" not in params:
        raise ParameterError(
            f"fault model {name!r} requires a survival probability p"
        )
    p = float(params["p"])
    if not 0 < p <= 1:
        raise ParameterError(
            f"fault model {name!r}: survival probability needs "
            f"0 < p <= 1, got {p}"
        )
    return p


def _check_keys(name: str, params: dict, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(params) - set(allowed))
    if extra:
        raise ParameterError(
            f"fault model {name!r} got unknown parameter(s) {extra}; "
            f"valid parameters: {sorted(allowed)}"
        )


def validate_fault_model(model) -> dict:
    """Canonicalize a fault-model mapping (``{"name": ..., **params}``).

    Validates the name against :data:`FAULT_MODELS` and the parameters
    against the model's own ``normalize`` hook, raising
    :class:`~repro.errors.ParameterError` with the valid choices on any
    mistake.  Returns the canonical JSON-shaped mapping (ints/floats
    coerced, pair lists normalized) — idempotent, so specs round-trip
    through JSON field-for-field.
    """
    if not isinstance(model, dict) or "name" not in model:
        raise ParameterError(
            f"fault_model must be a mapping with a 'name' key naming one "
            f"of: {', '.join(FAULT_MODELS.names())}; got {model!r}"
        )
    name = FAULT_MODELS.validate(model["name"])
    params = {k: model[k] for k in model if k != "name"}
    return {"name": name, **FAULT_MODELS.get(name).normalize(params)}


def realize_fault_model(model, *, n: int, cycles: int, rng, graph=None) -> FaultScenario:
    """Draw one concrete :class:`FaultScenario` from a fault universe.

    Parameters
    ----------
    model:
        The declarative description, e.g. ``{"name": "iid", "p": 0.9}``
        (validated through :func:`validate_fault_model` first).
    n:
        Physical node count of the *target* machine — models sample
        failures over ``[0, n)``.
    cycles:
        Default arrival window ``[0, cycles)`` for models whose
        parameters name no explicit ``window``.
    rng:
        A ``numpy.random.Generator``.  The realization is a pure
        function of ``(model, n, cycles, rng state)`` — seed it from
        ``(seed, replica_index)`` and every replica is reproducible.
    graph:
        The target :class:`~repro.graphs.static_graph.StaticGraph` (or a
        zero-argument callable building it) for models that sample
        neighborhoods (``burst``); ignored by the others.
    """
    model = validate_fault_model(model)
    params = {k: v for k, v in model.items() if k != "name"}
    return FAULT_MODELS.get(model["name"])(
        params, n=int(n), cycles=int(cycles), rng=rng, graph=graph
    )


def _norm_fixed(params: dict) -> dict:
    _check_keys("fixed", params, ("faults", "repairs"))
    out = {"faults": _norm_pairs("fixed", "faults", params.get("faults", []))}
    if "repairs" in params:
        out["repairs"] = _norm_pairs("fixed", "repairs", params["repairs"])
    return out


@FAULT_MODELS.register("fixed")
@_normalizes(_norm_fixed)
def _realize_fixed(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """A literal schedule: realizes to exactly the given ``faults`` (and
    optional ``repairs``) pairs, independent of the RNG — the registry
    form of the legacy ``faults=`` tuples, bit-identical by the fixed-
    model conformance tests."""
    return FaultScenario(
        [(int(c), int(v)) for c, v in params["faults"]],
        [(int(c), int(v)) for c, v in params.get("repairs", [])],
    )


def _norm_iid(params: dict) -> dict:
    _check_keys("iid", params, ("p", "window"))
    out = {"p": _norm_probability("iid", params)}
    if "window" in params:
        out["window"] = _norm_window("iid", params["window"])
    return out


@FAULT_MODELS.register("iid")
@_normalizes(_norm_iid)
def _realize_iid(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Independent random node faults: each of the ``n`` nodes fails
    with probability ``1 - p`` (``p`` is its survival probability), its
    arrival cycle drawn uniformly over ``window`` (default
    ``[0, cycles)``; use ``[0, 1]`` for a static fault universe present
    from cycle 0)."""
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    failed = np.flatnonzero(rng.random(n) >= params["p"])
    arrive = rng.integers(lo, hi, size=failed.size)
    return FaultScenario(
        sorted((int(c), int(v)) for c, v in zip(arrive, failed))
    )


def _norm_burst(params: dict) -> dict:
    _check_keys("burst", params, ("radius", "window"))
    if "radius" not in params:
        raise ParameterError("fault model 'burst' requires a radius")
    radius = int(params["radius"])
    if radius < 0:
        raise ParameterError(
            f"fault model 'burst': radius must be >= 0, got {radius}"
        )
    out = {"radius": radius}
    if "window" in params:
        out["window"] = _norm_window("burst", params["window"])
    return out


@FAULT_MODELS.register("burst")
@_normalizes(_norm_burst)
def _realize_burst(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Correlated regional failure: one uniformly drawn seed node plus
    every node within ``radius`` hops of it in the target graph fails,
    arrival cycles drawn uniformly over ``window`` (default
    ``[0, cycles)``) — the whole neighborhood goes down inside one
    bounded time span."""
    if graph is None:
        raise ParameterError(
            "fault model 'burst' needs the target graph to sample a "
            "neighborhood (pass graph= to realize_fault_model)"
        )
    g = graph() if callable(graph) else graph
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    center = int(rng.integers(n))
    region, frontier = {center}, [center]
    for _ in range(params["radius"]):
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                w = int(w)
                if w not in region:
                    region.add(w)
                    nxt.append(w)
        frontier = nxt
    nodes = sorted(region)
    arrive = rng.integers(lo, hi, size=len(nodes))
    return FaultScenario(
        sorted((int(c), int(v)) for c, v in zip(arrive, nodes))
    )


def _norm_churn(params: dict) -> dict:
    _check_keys("churn", params, ("p", "mean_downtime", "rounds", "window"))
    out = {"p": _norm_probability("churn", params)}
    if "mean_downtime" in params:
        mean_downtime = float(params["mean_downtime"])
        if not mean_downtime >= 1:
            raise ParameterError(
                f"fault model 'churn': mean_downtime must be >= 1 cycle, "
                f"got {mean_downtime}"
            )
        out["mean_downtime"] = mean_downtime
    if "rounds" in params:
        rounds = int(params["rounds"])
        if rounds < 1:
            raise ParameterError(
                f"fault model 'churn': rounds must be >= 1, got {rounds}"
            )
        out["rounds"] = rounds
    if "window" in params:
        out["window"] = _norm_window("churn", params["window"])
    return out


@FAULT_MODELS.register("churn")
@_normalizes(_norm_churn)
def _realize_churn(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Failure/repair churn: the window splits into ``rounds`` equal
    spans; in each span every node fails independently with probability
    ``1 - p`` and returns to service after a geometric downtime with
    mean ``mean_downtime`` cycles (capped at the span's end, so a node's
    repair always lands at or before its next possible failure — within
    a cycle, repairs fire first).  With ``rounds > 1`` the same node can
    fail, heal, and fail again, so every repair reopens a routing epoch
    and recompiles the detour baseline's survivor table."""
    p = params["p"]
    mean_downtime = params.get("mean_downtime", 20.0)
    rounds = params.get("rounds", 1)
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    span = hi - lo
    faults: list[tuple[int, int]] = []
    repairs: list[tuple[int, int]] = []
    for r in range(rounds):
        rlo = lo + (span * r) // rounds
        rhi = lo + (span * (r + 1)) // rounds
        if rhi <= rlo:
            continue
        failed = np.flatnonzero(rng.random(n) >= p)
        fall = rng.integers(rlo, rhi, size=failed.size)
        downtime = rng.geometric(1.0 / mean_downtime, size=failed.size)
        heal = np.minimum(fall + downtime, rhi)
        faults.extend(sorted((int(c), int(v)) for c, v in zip(fall, failed)))
        repairs.extend(sorted((int(c), int(v)) for c, v in zip(heal, failed)))
    return FaultScenario(faults, repairs)


class ReconfigurationController:
    """The paper's machine: an ``B^k_{m,h}`` interconnect plus the monotone
    remap.  Messages address *logical* target nodes; the controller routes
    them on the intact logical de Bruijn graph and lifts through φ.

    Usage: :meth:`run_workload` drives batches of logical (src, dst) pairs
    on the true cycle timeline, firing scheduled faults at exactly the
    cycle they come due.

    Parameters
    ----------
    m, h, k:
        Construction parameters of the underlying ``B^k_{m,h}``.
    engine:
        ``"object"`` (reference engine), ``"batch"`` (vectorized; use for
        heavy traffic) or ``"sharded"`` (multi-process on top of the
        batch engine; faults fire at batch boundaries — see
        :class:`repro.simulator.shard_driver.ShardedEngine`).
    link_capacity:
        Packets one directed link may move per cycle.
    workers:
        Worker-process count for ``engine="sharded"`` (``None`` = one per
        CPU core); ignored by the in-process engines.
    """

    def __init__(self, m: int, h: int, k: int, *, engine: str = "object",
                 link_capacity: int = 1, workers: int | None = None):
        self.m, self.h, self.k = int(m), int(h), int(k)
        self.target = debruijn(m, h)
        self.ft = ft_debruijn(m, h, k)
        self.rec = Reconfigurator(self.ft.node_count, self.target.node_count)
        self.engine = engine
        self.sim = make_engine(engine, self.ft, link_capacity, workers)
        self.events = EventQueue()
        self.lost_to_faults = 0
        self.fault_log: list[tuple[int, int]] = []
        self.repair_log: list[tuple[int, int]] = []
        #: bumped on every fault or repair; route caches (the streaming
        #: driver's pre-routed arrival calendar) re-lift through φ when
        #: it moves
        self.routing_epoch = 0

    def schedule(self, scenario: FaultScenario) -> None:
        """Add a :class:`FaultScenario`'s events to the controller's queue
        (cumulative: scheduling twice fires every event twice)."""
        scenario.schedule_into(self.events)

    def fire_due_events(self, cycle: int | None = None) -> int:
        """Fire every scheduled event due at or before ``cycle`` (default:
        the simulator's current cycle); returns the count fired.  The
        workload drivers — :meth:`run_workload` and
        :func:`repro.simulator.streaming.run_stream` — call this at the
        top of every simulated cycle so faults land exactly on time."""
        due = self.sim.cycle if cycle is None else int(cycle)
        return self.events.run_handlers(due, self._EVENT_HANDLERS, self)

    def _on_fault(self, ev) -> None:
        node = int(ev.payload)
        self.rec.fail_node(node)
        self.lost_to_faults += self.sim.disable_node(node)
        self.fault_log.append((self.sim.cycle, node))
        self.routing_epoch += 1

    def _on_repair(self, ev) -> None:
        """A repaired node rejoins service: the reconfigurator reclaims
        its spare, the engine accepts its traffic again, and the remap
        epoch moves so later injections re-lift through the new φ."""
        node = int(ev.payload)
        self.rec.repair_node(node)
        self.sim.enable_node(node)
        self.repair_log.append((self.sim.cycle, node))
        self.routing_epoch += 1

    #: event kind -> handler, as plain functions: bound methods stored on
    #: the instance would hold the controller (engine, route table) in a
    #: reference cycle that only a full gc collects
    _EVENT_HANDLERS = {"node_fault": _on_fault, "node_repair": _on_repair}

    def physical_router(self):
        """Current lifted router (closure over the live φ)."""
        phi = self.rec.phi()

        def route(src: int, dst: int) -> list[int]:
            logical = shift_route(src, dst, self.m, self.h)
            return [int(phi[v]) for v in logical]

        return route

    def physical_routes_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lifted routes for a whole batch of logical pairs as
        ``(flat, offsets)`` arrays — the engines' shared injection format."""
        return lifted_routes_batch(self.m, self.h, self.rec.phi(), srcs, dsts)

    def _inject(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        flat, offsets = self.physical_routes_batch(batch[:, 0], batch[:, 1])
        self.sim.inject_routes(flat, offsets, validate=True)

    def _step_and_fire(self) -> None:
        """One cycle of simulated time, then any events that came due."""
        self.sim.step()
        self.fire_due_events()

    def run_workload(self, batches: list[np.ndarray], *, cycles_per_batch: int = 0,
                     max_cycles: int = 1_000_000) -> RunStats:
        """Inject each batch (logical pairs), draining between batches and
        firing each scheduled fault at exactly the cycle it comes due —
        before the injection it precedes, or mid-drain, never a batch late.

        ``cycles_per_batch`` > 0 inserts that many idle cycles *before*
        each batch after the first, so the documented fixed timeline is
        honored even when batches drain quickly.  Faults that fall in an
        idle gap fire inside the gap; faults that fall mid-drain drop the
        packets queued in the failed router (counted in
        ``lost_to_faults``).  Events scheduled beyond the last simulated
        cycle never fire.

        With ``engine="sharded"`` the batches are drained across the
        worker pool instead: consecutive batches with no pending event are
        injected together and drained as one parallel wave (bit-identical
        statistics to ``engine="batch"``), while pending events force
        batch-at-a-time draining with faults applied at batch boundaries
        (mid-drain timing is deferred to the end of the draining batch —
        see :class:`repro.simulator.shard_driver.ShardedEngine`).
        """
        if self.engine == "sharded":
            return self._run_workload_sharded(
                batches, cycles_per_batch=cycles_per_batch, max_cycles=max_cycles
            )
        for i, batch in enumerate(batches):
            if i and cycles_per_batch:
                for _ in range(cycles_per_batch):
                    self._step_and_fire()
            self.fire_due_events()
            self._inject(batch)
            start = self.sim.cycle
            while self.sim.in_flight:
                if self.sim.cycle - start >= max_cycles:
                    raise SimulationError(
                        f"simulation did not drain within {max_cycles} cycles"
                    )
                self._step_and_fire()
        self.fire_due_events()
        return self.sim.stats()

    def run_stream(self, source, **kwargs):
        """Drive this controller open-loop from a
        :class:`repro.simulator.sources.TrafficSource` — see
        :func:`repro.simulator.streaming.run_stream` for the keyword
        arguments (``cycles``, ``warmup``, ``window``) and the returned
        :class:`repro.simulator.metrics.StreamStats`."""
        from repro.simulator.streaming import run_stream

        return run_stream(self, source, **kwargs)

    def _run_workload_sharded(self, batches: list[np.ndarray], *,
                              cycles_per_batch: int,
                              max_cycles: int) -> RunStats:
        """Sharded twin of :meth:`run_workload`: greedily inject every
        batch that no pending event could precede, then drain the wave in
        parallel.  Any pending event (even one due far past the end of the
        run — drain durations are unknown up front) conservatively forces
        batch-at-a-time draining so its boundary position is preserved."""
        i, n = 0, len(batches)
        while i < n:
            if i and cycles_per_batch:
                self.sim.cycle += cycles_per_batch  # idle gap, spent at once
            self.fire_due_events()
            self._inject(batches[i])
            i += 1
            while i < n and not len(self.events):
                if cycles_per_batch:
                    self.sim.cycle += cycles_per_batch
                self._inject(batches[i])
                i += 1
            self.sim.drain(max_cycles=max_cycles)
        self.fire_due_events()
        return self.sim.stats()


class DetourController:
    """The spare-less baseline: the bare target graph with survivor-graph
    detours.

    After faults, surviving nodes route around dead ones; logical nodes
    hosted on dead processors simply cannot send or receive (counted in
    ``unreachable_pairs``) — the §I degradation mode.

    The detours come from one compiled
    :class:`~repro.routing.tables.RouteTable` per *fault epoch*
    (:func:`repro.routing.fault_routing.survivor_route_table`), cached on
    the frozen fault set and invalidated by every fault event; whole
    batches extract vectorized.  Routes are hop-optimal — the
    conformance suite (``tests/conformance/``) checks admission and hop
    counts against a per-pair BFS oracle and pins outputs with goldens.

    Faults arrive two ways: :meth:`fail_node` kills a node immediately,
    and :meth:`schedule` queues a :class:`FaultScenario` on the
    controller's event clock — the workload drivers fire due events at
    batch boundaries (:meth:`run_workload`) or exactly on cycle
    (:func:`repro.simulator.streaming.run_stream`), so mid-stream fault
    epochs recompile the detour table before the next arrival batch.
    """

    def __init__(self, m: int, h: int, *, engine: str = "object",
                 link_capacity: int = 1, workers: int | None = None):
        self.m, self.h = int(m), int(h)
        self.target = debruijn(m, h)
        self.engine = engine
        self.sim = make_engine(engine, self.target, link_capacity, workers)
        self.faults: set[int] = set()
        self.unreachable_pairs = 0
        self.lost_to_faults = 0
        self.fault_log: list[tuple[int, int]] = []
        self.repair_log: list[tuple[int, int]] = []
        #: bumped on every fault or repair, mirroring
        #: ReconfigurationController — streaming route caches key on it
        self.routing_epoch = 0
        self.events = EventQueue()
        # epoch cache: one compiled survivor table per frozen fault set,
        # invalidated by fail_node and repair_node (every fault and
        # repair event funnels through them)
        self._table = None
        self._table_faults: frozenset[int] | None = None

    def schedule(self, scenario: FaultScenario) -> None:
        """Add a :class:`FaultScenario`'s events to the controller's queue
        (cumulative: scheduling twice fires every event twice)."""
        scenario.schedule_into(self.events)

    def fire_due_events(self, cycle: int | None = None) -> int:
        """Fire every scheduled event due at or before ``cycle`` (default:
        the simulator's current cycle); returns the count fired."""
        due = self.sim.cycle if cycle is None else int(cycle)
        return self.events.run_handlers(due, self._EVENT_HANDLERS, self)

    def _on_fault(self, ev) -> None:
        node = int(ev.payload)
        self.fail_node(node)
        self.fault_log.append((self.sim.cycle, node))

    def _on_repair(self, ev) -> None:
        node = int(ev.payload)
        self.repair_node(node)
        self.repair_log.append((self.sim.cycle, node))

    #: plain functions, as on :class:`ReconfigurationController`
    _EVENT_HANDLERS = {"node_fault": _on_fault, "node_repair": _on_repair}

    def repair_node(self, node: int) -> None:
        """Return a failed node to service: survivors stop detouring
        around it and it can send/receive again from the next routed
        batch on.  Moves the routing epoch, so the compiled-table cache
        (keyed on the frozen fault set) recompiles on next use."""
        node = int(node)
        if node not in self.faults:
            raise SimulationError(
                f"cannot repair node {node}: it is not faulty"
            )
        self.sim.enable_node(node)
        self.faults.discard(node)
        self.routing_epoch += 1

    def fail_node(self, node: int) -> None:
        """Kill a physical node: survivors detour around it from now on;
        packets already queued on its links drop (counted in
        ``lost_to_faults``).  Invalidates the compiled-table cache.

        The engine validates the node id first — a rejected id must not
        leak into ``faults``, where it would poison every later routing
        batch."""
        node = int(node)
        self.lost_to_faults += self.sim.disable_node(node)
        self.faults.add(node)
        self.routing_epoch += 1

    def survivor_table(self):
        """The current fault epoch's compiled detour
        :class:`~repro.routing.tables.RouteTable` (original node ids),
        compiled at most once per frozen fault set."""
        key = frozenset(self.faults)
        if self._table is None or self._table_faults != key:
            self._table = survivor_route_table(self.target, key)
            self._table_faults = key
        return self._table

    def detour_routes_batch(
        self, pairs: np.ndarray, *, record: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Detour routes for a batch of (src, dst) pairs under the
        current fault set.

        Returns ``(flat, offsets, kept)``: the engines' shared flattened
        route layout plus the indices of the pairs that are actually
        routable.  Unreachable pairs (faulty endpoint or disconnected
        survivors) are skipped and — when ``record`` is true — counted
        in ``unreachable_pairs``; the open-loop streaming driver passes
        ``record=False`` and accounts per injected epoch instead, so a
        mid-stream re-route of the same tail never double-counts."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        flat, offsets, kept = self._route_pairs(pairs)
        if record:
            self.unreachable_pairs += int(pairs.shape[0] - kept.size)
        return flat, offsets, kept

    def _route_pairs(self, pairs: np.ndarray):
        """One cached table per epoch, vectorized extraction.  The
        survivor table encodes endpoint liveness too (a faulty node's
        diagonal is the UNREACHABLE sentinel), so one masked extraction
        decides admission and emits every route."""
        rt = self.survivor_table()
        if pairs.shape[0] == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, np.zeros(1, dtype=np.int64), z
        return rt.routes_batch_masked(pairs[:, 0], pairs[:, 1])

    def run_stream(self, source, **kwargs):
        """Open-loop twin of :meth:`run_workload` — see
        :func:`repro.simulator.streaming.run_stream`."""
        from repro.simulator.streaming import run_stream

        return run_stream(self, source, **kwargs)

    def run_workload(self, batches: list[np.ndarray], *,
                     max_cycles: int = 1_000_000) -> RunStats:
        """Route and drain each batch, firing scheduled fault events at
        batch boundaries (the detour baseline drains whole batches, so
        that is its event granularity; events due past the last
        simulated cycle never fire).
        ``engine="sharded"`` defers the drains and runs them as one
        parallel wave — with a fixed fault set the batches are
        independent and the merged statistics are bit-identical to the
        sequential engines."""
        sharded = self.engine == "sharded"
        for batch in batches:
            self.fire_due_events()
            flat, offsets, _ = self.detour_routes_batch(batch)
            self.sim.inject_routes(flat, offsets, validate=False)
            if not sharded:
                self.sim.run(max_cycles)
        if sharded:
            self.sim.run(max_cycles)
        self.fire_due_events()
        return self.sim.stats()


# ---------------------------------------------------------------------------
# registry entries: controller builders
# ---------------------------------------------------------------------------

@CONTROLLERS.register("reconfig")
def _build_reconfig(m, h, k, *, engine="batch", link_capacity=1,
                    workers=None):
    """The paper's machine: ``B^k_{m,h}`` + monotone remap."""
    return ReconfigurationController(
        m, h, k, engine=engine, link_capacity=link_capacity, workers=workers
    )


@CONTROLLERS.register("detour")
def _build_detour(m, h, k, *, engine="batch", link_capacity=1,
                  workers=None):
    """The spare-less baseline on the bare target graph (``k`` does not
    apply — there are no spares to configure)."""
    return DetourController(
        m, h, engine=engine, link_capacity=link_capacity, workers=workers,
    )
