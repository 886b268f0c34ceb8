"""Front-door benchmark of the repro package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {surface,stream,service}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Every metric is printed by name with
its unit, then the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Simulated
outputs are checked against the inline reference; any mismatch makes
the exit code nonzero.  ``--size tiny`` and ``--perturb`` exist for
``perfbench/selfcheck.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench.common import (  # noqa: E402
    HERE, OUT_DIR, ROOT, SRC, TAIL_PCT, median, percentile, shm_entries,
    src_env, strip_seconds, vm_hwm_mb,
)
from perfbench.workloads import GRID_WORKLOADS, SIZES, WORKLOADS  # noqa: E402

#: Pool size of every workload: the benchmark's own pool and ``repro serve``.
WORKERS = 2
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 3
#: Measured passes per phase at least, after one warm-up pass.
MIN_PASSES = 2
#: Service jobs per pass; the full-size run measures at least
#: ``MIN_JOBS`` so the tail percentile has ten samples beyond it.
JOBS_PER_PASS = 10
MIN_JOBS = 100
SETUP_GRID = os.path.join(HERE, "setup_grid.json")


class BenchError(Exception):
    """The program under test failed in a way the benchmark can name."""


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"e2e": bench["end_to_end"], "layer": bench["per_layer"]}


def import_checkout_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    sys.path[:0] = [SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter on the workload's front door
# ---------------------------------------------------------------------------

def setup_grid(traced: bool) -> dict:
    """``repro run`` on a two-cell grid with ``--workers 2``, cold.
    Untraced: the process's whole wall time (imports, validation, pool
    spawn, two tiny cells, exit).  Traced: the probe's split into
    imports and pool spawn."""
    times, imports, spawns = [], [], []
    for _ in range(SETUP_PROBES):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                   repr(time.time()), SETUP_GRID]
        else:
            cmd = [sys.executable, "-m", "repro", "run", SETUP_GRID,
                   "--workers", str(WORKERS)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=src_env(),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
        if traced:
            line = proc.stdout.strip().splitlines()[-1]
            probe = json.loads(line.removeprefix("PERFBENCH_SETUP "))
            imports.append(probe["import_s"])
            spawns.append(probe["pool_spawn_s"])
    if not traced:
        return {"setup_s": median(times)}
    return {"setup.import_s": median(imports),
            "setup.pool_spawn_s": median(spawns)}


# ---------------------------------------------------------------------------
# grid workloads: run_grid on a warm WorkerPool
# ---------------------------------------------------------------------------

def _perturbed(grid_result):
    """The grid result with one stat of its first cell moved by one."""
    first = grid_result.results[0]
    stats = replace(first.stats, delivered=first.stats.delivered + 1)
    return replace(grid_result,
                   results=(replace(first, stats=stats),)
                   + grid_result.results[1:])


def grid_phase(payloads, seconds: float, traced: bool, perturb: bool) -> dict:
    """One warm pool, one warm-up pass, then passes until ``seconds``
    have passed (at least ``MIN_PASSES``).  Returns the pass records,
    the pool's spawn count and the peak RSS over this process and the
    workers as it stands after the warm-up pass: one pass on freshly
    spawned workers, as one ``repro run`` sees it.  Later passes are
    left out because finished controllers sit in reference cycles until
    a full garbage collection, so a warm worker's peak grows with the
    pass count and the collector's timing."""
    import multiprocessing

    from perfbench import reference, tracing
    from repro.simulator.pool import WorkerPool
    from repro.simulator.shard_driver import run_grid

    def peak_rss_mb() -> float:
        pids = [c.pid for c in multiprocessing.active_children()]
        return max([vm_hwm_mb()] + [vm_hwm_mb(pid) for pid in pids])

    rec = saved = driver = rss = None
    if traced:
        rec, saved = tracing.install()
    span = rec.span if traced else nullcontext
    pool = WorkerPool(workers=WORKERS)
    passes, error = [], None
    try:
        pool.map(abs, range(2 * WORKERS))     # spawn every worker first
        if traced:
            driver = tracing.TracedDriver(pool, rec)
        deadline = None
        while True:
            start = len(rec.spans) if traced else 0
            t0 = time.perf_counter()
            try:
                with span("experiments.expand") as sp:
                    specs = reference.expand(payloads)
                with span("pool.run_grid"):
                    result = run_grid(specs, pool=pool, driver=driver)
            except Exception as exc:  # the program failed: record, stop
                error = f"{type(exc).__name__}: {exc}"
                break
            t1 = time.perf_counter()
            if perturb and not passes:
                result = _perturbed(result)
            record = {
                "wall": t1 - t0, "t0": t0, "t1": t1,
                "digests": reference.cell_digests(result),
                "hops": sum(reference.result_hops(r) for r in result.results),
                "specs": len(specs),
            }
            if traced:
                sp[4] = {"specs": len(specs)}
                record.update(driver_spans=rec.take(start),
                              tasks=driver.tasks, maps=driver.maps)
                driver.tasks, driver.maps = [], []
            passes.append(record)
            if deadline is None:               # the warm-up pass is done
                rss = peak_rss_mb()
                deadline = time.perf_counter() + seconds
            elif (time.perf_counter() >= deadline
                  and len(passes) > MIN_PASSES):
                break
        spawned = pool.spawned
    finally:
        pool.close()
        if traced:
            tracing.uninstall(saved)
    return {"passes": passes, "error": error, "rss": rss,
            "spawned": spawned}


def check_grid(phases: list[dict], expected: list[str]) -> tuple[int, int, list]:
    """Cells attempted and failed over every pass of every phase; a
    pass that raised fails all its cells."""
    attempted = failed = 0
    problems = []
    for phase in phases:
        for i, p in enumerate(phase["passes"]):
            attempted += len(expected)
            bad = [c for c, (got, want) in
                   enumerate(zip(p["digests"], expected)) if got != want]
            bad += list(range(len(p["digests"]), len(expected)))
            failed += len(bad)
            if bad:
                problems.append(f"pass {i}: cells {bad} differ from the "
                                f"inline reference")
        if phase["error"]:
            attempted += len(expected)
            failed += len(expected)
            problems.append(phase["error"])
    return attempted, failed, problems


def grid_e2e(phase: dict, setup_s: float) -> dict:
    measured = phase["passes"][1:]
    walls = [p["wall"] for p in measured]
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "sim_hops_per_s": median(p["hops"] / p["wall"] for p in measured),
        "peak_rss_mb": phase["rss"],
        "job_p50_s": median(walls),
        f"job_p{TAIL_PCT}_s": percentile(walls, TAIL_PCT),
        "jobs_per_s": median(1 / w for w in walls),
    }


def grid_trace_file(path: str, passes: list[dict]) -> None:
    from perfbench.tracing import write_chrome_trace

    lanes = []
    for n, p in enumerate(passes):
        lanes.append((os.getpid(), 0, f"p{n}", p["driver_spans"]))
        for task in p["tasks"]:
            index = task["spans"][0][4]["index"]
            lanes.append((task["pid"], 0, f"p{n}.t{index}", task["spans"]))
    write_chrome_trace(path, lanes)


def run_grid_workload(args) -> dict:
    from perfbench import layers, reference

    payloads = WORKLOADS[args.workload](args.seed, args.size)
    shm_before = shm_entries()
    setup = setup_grid(args.trace)
    if args.trace:
        plain = grid_phase(payloads, args.seconds / 2, False, args.perturb)
        traced = grid_phase(payloads, args.seconds / 2, True, False)
        phases = [plain, traced]
    else:
        phases = [grid_phase(payloads, args.seconds, False, args.perturb)]
    leaked = len(shm_entries() - shm_before)
    expected = reference.stored(args.workload, args.seed, args.size)
    if expected is None:
        expected = reference.inline_grid(payloads)
    attempted, failed, problems = check_grid(phases, expected)
    if leaked:
        problems.append(f"{leaked} /dev/shm segment(s) left behind")
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "error_rate": failed / attempted}
    if any(len(ph["passes"]) <= MIN_PASSES for ph in phases):
        out["metrics"] = None                  # nothing sound to report
        return out
    if not args.trace:
        out["metrics"] = grid_e2e(phases[0], setup["setup_s"])
        return out
    traced = phases[1]["passes"][1:]
    metrics = layers.grid_layers(traced)
    wall = median(p["wall"] for p in traced)
    untraced = median(p["wall"] for p in phases[0]["passes"][1:])
    metrics.update(setup)
    metrics.update({
        "pool.spawned": float(phases[1]["spawned"]),
        "pool.respawns": float(phases[1]["spawned"] - WORKERS),
        "shm.segments_leaked": float(leaked),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    })
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    grid_trace_file(path, traced)
    out["metrics"] = metrics
    out["trace_file"] = path
    return out


# ---------------------------------------------------------------------------
# service workload: repro serve over HTTP
# ---------------------------------------------------------------------------

def setup_service(traced: bool) -> dict:
    """``repro serve --workers 2``, cold, until ``/healthz`` answers;
    the import share is the time to its "listening" line."""
    from perfbench.service_load import Server

    healthy, banner = [], []
    for _ in range(SETUP_PROBES):
        server = Server(WORKERS)
        try:
            server.wait_healthy()
            healthy.append(time.time() - server.launched)
            banner.append(server.banner_at - server.launched)
        finally:
            left = server.stop()
        if left:
            raise BenchError(f"repro serve left processes {left} running")
    if traced:
        return {"setup.import_s": median(banner)}
    return {"setup_s": median(healthy)}


def service_phase(server, gen, seconds: float, min_jobs: int) -> list[dict]:
    """Passes of ``JOBS_PER_PASS`` jobs until ``seconds`` have passed
    and at least ``min_jobs`` jobs are done."""
    batches = []
    deadline = time.time() + seconds
    while True:
        t0, t1, jobs = gen.batch(JOBS_PER_PASS)
        batches.append({"t0": t0, "t1": t1, "jobs": jobs})
        done = sum(len(b["jobs"]) for b in batches)
        if (time.time() >= deadline and done >= min_jobs
                and len(batches) >= MIN_PASSES):
            return batches


def check_jobs(batches: list[dict], refs: list[dict], perturb: bool):
    attempted = failed = 0
    problems = []
    for b in batches:
        for job in b["jobs"]:
            attempted += 1
            rows = [strip_seconds(r) for r in job["rows"]]
            if perturb and attempted == 1 and rows:
                rows[0] = dict(rows[0], delivered=rows[0]["delivered"] + 1)
            summary = job["summary"]
            if job["status"] != 202 or summary is None:
                why = job.get("error") or "no terminal stream line"
            elif summary["state"] != "done":
                why = f"ended {summary['state']}: {summary['error']}"
            elif rows != refs[job["payload"]]["rows"]:
                why = "rows differ from run_grid on the same payload"
            else:
                continue
            failed += 1
            problems.append(f"job on payload {job['payload']}: {why}")
    return attempted, failed, problems


def run_service_workload(args) -> dict:
    from perfbench import layers, reference
    from perfbench.service_load import LoadGenerator, Server
    from perfbench.tracing import write_chrome_trace

    payloads = WORKLOADS["service"](args.seed, args.size)
    refs = reference.inline_service(payloads)
    problems = []
    stored = reference.stored("service", args.seed, args.size)
    if stored is not None and stored != [r["digest"] for r in refs]:
        problems.append("inline service reference differs from digests.json")
    shm_before = shm_entries()
    setup = setup_service(args.trace)
    clients = min(WORKERS, os.cpu_count() or 1)
    min_jobs = MIN_JOBS if args.size == "full" else 0
    server = Server(WORKERS)
    try:
        server.wait_healthy()
        gen = LoadGenerator(server, payloads, clients)
        try:
            warm = gen.batch(JOBS_PER_PASS)
            if args.trace:
                plain = service_phase(server, gen, args.seconds / 2, 0)
                batches = service_phase(server, gen, args.seconds / 2,
                                        min_jobs)
            else:
                plain = []
                batches = service_phase(server, gen, args.seconds, min_jobs)
        finally:
            gen.close()
        health = server.wait_healthy()
        rss = server.peak_rss_mb()
    finally:
        left = server.stop()
    leaked = len(shm_entries() - shm_before)
    warm_batch = {"t0": warm[0], "t1": warm[1], "jobs": warm[2]}
    attempted, failed, job_problems = check_jobs(
        [warm_batch, *plain, *batches], refs, args.perturb)
    problems += job_problems
    if left:
        problems.append(f"repro serve left processes {left} running")
    if leaked:
        problems.append(f"{leaked} /dev/shm segment(s) left behind")
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "error_rate": failed / attempted}
    every = [j for b in (warm_batch, *plain, *batches) for j in b["jobs"]]
    if any(j["summary"] is None or j["summary"]["state"] != "done"
           for j in every):
        out["metrics"] = None                  # nothing sound to report
        return out
    walls = [b["t1"] - b["t0"] for b in batches]
    hops = [sum(refs[j["payload"]]["hops"] for j in b["jobs"])
            for b in batches]
    jobs = [j for b in batches for j in b["jobs"]]
    latency = [j["t_done"] - j["t_post"] for j in jobs]
    if not args.trace:
        out["metrics"] = {
            "setup_s": setup["setup_s"],
            "wall_s": median(walls),
            "sim_hops_per_s": median(h / w for h, w in zip(hops, walls)),
            "peak_rss_mb": rss,
            "job_p50_s": median(latency),
            f"job_p{TAIL_PCT}_s": percentile(latency, TAIL_PCT),
            "jobs_per_s": median(len(b["jobs"]) / (b["t1"] - b["t0"])
                                 for b in batches),
        }
        out["samples"] = len(latency)
        return out
    metrics = layers.service_layers(batches, hops)
    runs = sorted(
        (j["summary"]["started_at"], j["summary"]["finished_at"])
        for j in warm_batch["jobs"]
    )
    steady = median(j["summary"]["finished_at"] - j["summary"]["started_at"]
                    for j in jobs)
    metrics.update(setup)
    metrics.update({
        # repro serve spawns its pool lazily: the first job pays for it
        "setup.pool_spawn_s": (runs[0][1] - runs[0][0]) - steady,
        "pool.spawned": float(health["pool"]["spawned"]),
        "pool.respawns": float(health["pool"]["spawned"] - WORKERS),
        "shm.segments_leaked": float(leaked),
        "trace.wall_s": median(walls),
        "trace.untraced_wall_s": median(b["t1"] - b["t0"] for b in plain),
    })
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    path = os.path.join(OUT_DIR, f"trace-service-{args.seed}.json")
    write_chrome_trace(path, [
        (0, j["lane"], f"b{n}.j{i}",
         [[name, a, b, -1, {"payload": j["payload"]}]
          for a, b, name in layers.job_lane_segments(j)])
        for n, batch in enumerate(batches)
        for i, j in enumerate(batch["jobs"])
    ])
    out["metrics"] = metrics
    out["trace_file"] = path
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def report(out: dict, specs: list[dict]) -> dict:
    """Print every metric by name and unit; return the contract's
    ``metrics`` object (``None`` when a required metric is missing)."""
    got = out.get("metrics") or {}
    names = [m["name"] for m in specs]
    if got and set(got) != set(names):
        raise BenchError(f"metric set mismatch: extra "
                         f"{sorted(set(got) - set(names))}, missing "
                         f"{sorted(set(names) - set(got))}")
    width = max(len(n) for n in names + ["error_rate"])
    print(f"{'error_rate':<{width}}  {out['error_rate']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} failed)")
    if "samples" in out:
        print(f"{'job samples':<{width}}  {out['samples']}")
    for m in specs:
        if m["name"] in got:
            print(f"{m['name']:<{width}}  {got[m['name']]:.6g} {m['unit']}")
    for problem in out["problems"]:
        print(f"FAILED: {problem}")
    if "trace_file" in out:
        print(f"trace written to {os.path.relpath(out['trace_file'], ROOT)}")
    if not got:
        return None
    return {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
            for m in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--perturb", action="store_true",
                    help="move one simulated stat; the check must fail")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        import_checkout_repro()
        specs = load_metric_specs()["layer" if args.trace else "e2e"]
        if args.workload in GRID_WORKLOADS:
            out = run_grid_workload(args)
        else:
            out = run_service_workload(args)
        metrics = report(out, specs)
    except (BenchError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = out["failed"] == 0 and not out["problems"]
    if metrics is None:
        print("perfbench: no metrics (the run failed)", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
