"""The three workloads as ``repro run`` / ``POST /experiments`` payloads.

Every payload is a pure function of ``(seed, size)``: the benchmark seed
picks the traffic seeds and the fixed fault nodes, nothing else.  All
cells use ``route_mode="table"`` and declarative ``fault_model``\\ s.
``size="tiny"`` shrinks every machine so the self-check finishes in
seconds; the measured size is ``"full"``.  Why each workload exists is
written in ``README.md`` next to this file.

At full size every pool task computes for about 30 ms or more.  With
shorter tasks a pass is mostly process wake-ups, and a busy host delays
those by an amount that changes from run to run.
"""

from __future__ import annotations

import numpy as np

SIZES = ("full", "tiny")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _derived_seeds(seed: int, salt: int, count: int) -> list[int]:
    return [int(s) for s in _rng(seed, salt).integers(0, 2**31, size=count)]


def _fixed_faults(rng: np.random.Generator, n: int, cycles) -> dict:
    """A ``fixed`` fault model: distinct random nodes at the given cycles."""
    nodes = rng.choice(n, size=len(cycles), replace=False)
    return {
        "name": "fixed",
        "faults": [[int(c), int(v)] for c, v in zip(cycles, nodes)],
    }


#: Spare budgets for the reconfiguration arm: with survival probability
#: p >= 0.995, P(realized faults > k) is below 1e-10 per replica at both
#: sizes, so no replica overflows its spares on any seed in practice.
_SURFACE_RECONFIG_FULL = [[2, 9, 18], [2, 10, 25]]
_SURFACE_DETOUR_FULL = [[2, 9, 1], [2, 10, 1]]
_SURFACE_PS = (1.0, 0.998, 0.995)


def surface(seed: int, size: str) -> list[dict]:
    """A Monte-Carlo dependability surface: both arms over two sizes and
    three i.i.d. survival probabilities with many replicas, plus one
    detour size at h=11, where the survivor table is an int64 2048x2048
    matrix per replica."""
    full = size == "full"
    traffic_seed = _derived_seeds(seed, 3, 1)[0]
    shared = {
        "patterns": ["uniform"], "loads": [6000 if full else 200],
        "seeds": [traffic_seed], "engine": "batch", "route_mode": "table",
    }
    models = [{"name": "iid", "p": p} for p in _SURFACE_PS]
    replicas = 3 if full else 2
    # the h=11 cell goes first: its replicas land in the first chunk, on
    # a freshly spawned worker, so the warm-up pass's peak RSS is that
    # of the big tables rather than of whatever garbage came before
    return [
        {"grid": {**shared, "controller": "detour",
                  "mhk": [[2, 11, 1]] if full else [[2, 5, 1]],
                  "fault_models": models[-1:], "replicas": 2}},
        {"grid": {**shared, "controller": "reconfig",
                  "mhk": _SURFACE_RECONFIG_FULL if full else [[2, 4, 8]],
                  "fault_models": models, "replicas": replicas}},
        {"grid": {**shared, "controller": "detour",
                  "mhk": _SURFACE_DETOUR_FULL if full else [[2, 4, 1]],
                  "fault_models": models, "replicas": replicas}},
    ]


def stream(seed: int, size: str) -> list[dict]:
    """An open-loop Poisson rate ladder on ``B^3_{2,10}`` with three
    fixed faults mid-stream (four routing epochs per cell), repeated
    over two traffic seeds.  Saturation lies between 128 and 192
    packets/cycle.  The six cells expand rate-major, highest rate first,
    so the pool's one-task steals hand each worker one cell per rate and
    the slowest cell never runs alone at the end of a pass."""
    full = size == "full"
    h, cycles = (10, 400) if full else (5, 200)
    rates = [192.0, 128.0, 64.0] if full else [6.0, 4.0, 2.0]
    rng = _rng(seed, 4)
    fault_cycles = [cycles // 4, cycles // 2, 3 * cycles // 4]
    return [{"grid": {
        "mhk": [[2, h, 3]], "loop": "stream", "source": "poisson",
        "patterns": ["uniform"], "rates": rates,
        "cycles": cycles, "warmup": cycles // 10,
        "fault_models": [_fixed_faults(rng, 2 ** h, fault_cycles)],
        "seeds": _derived_seeds(seed, 5, 2),
        "controller": "reconfig", "engine": "batch", "route_mode": "table",
    }}]


#: Distinct job payloads the service clients cycle through.
SERVICE_PAYLOADS = 8


def service(seed: int, size: str) -> list[dict]:
    """Small replicated ``detour`` grid jobs: one ``h=9`` cell, six
    i.i.d. replicas, so each job is six pool tasks of one survivor-table
    compile and a short drain each."""
    full = size == "full"
    count = SERVICE_PAYLOADS if full else 2
    return [
        {"grid": {
            "mhk": [[2, 9, 1]] if full else [[2, 4, 1]],
            "patterns": ["uniform"], "loads": [4000 if full else 50],
            "fault_models": [{"name": "iid", "p": 0.97}],
            "replicas": 6 if full else 2, "seeds": [s],
            "controller": "detour", "engine": "batch", "route_mode": "table",
        }}
        for s in _derived_seeds(seed, 6, count)
    ]


WORKLOADS = {"surface": surface, "stream": stream, "service": service}
GRID_WORKLOADS = ("surface", "stream")
