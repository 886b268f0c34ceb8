"""Output check: digests of simulated results and their references.

A cell's digest covers every field of its result row except
``seconds`` plus the exact statistics record (``ShardStats`` histograms
or the full ``StreamStats``), so a change to any simulated number shows.
References come from the inline ``workers=0`` path: stored in
``digests.json`` for the seeds listed there (full size only), computed
by one inline run for any other seed.

Regenerate the stored digests after a deliberate change of simulated
output::

    python3 perfbench/reference.py --seeds 0 1 2 3 4 5 6 7 8 9
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench.common import HERE, digest, strip_seconds  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def expand(payloads: list[dict]) -> list:
    """The run payloads' cells in order, parsed and validated exactly as
    ``repro run`` and ``POST /experiments`` do."""
    from repro.experiments import parse_run_payload

    specs = []
    for payload in payloads:
        target, kind = parse_run_payload(payload)
        specs.extend(target.expand() if kind == "grid" else [target])
    return specs


def cell_digests(grid_result) -> list[str]:
    rows = grid_result.rows()
    return [
        digest([strip_seconds(row), res.stats.to_dict()])
        for row, res in zip(rows, grid_result.results)
    ]


def result_hops(res) -> int:
    """Packet-hops delivered by one cell: the hop histogram of a
    closed-loop cell, ``totals`` of a stream cell."""
    from repro.simulator.shard_driver import ShardStats

    st = res.stats
    if isinstance(st, ShardStats):
        return int(st.hop_values @ st.hop_counts)
    return int(round(st.totals.mean_hops * st.totals.delivered))


def stored(workload: str, seed: int, size: str):
    """The stored reference for ``(workload, seed)``, or ``None``."""
    if size != "full":
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def inline_grid(payloads: list[dict]) -> list[str]:
    """Cell digests of one inline (``workers=0``) run."""
    from repro.simulator.shard_driver import run_grid

    return cell_digests(run_grid(expand(payloads), workers=0))


def inline_service(payloads: list[dict]) -> list[dict]:
    """Per payload: the inline rows (without ``seconds``), their digest
    and the packet-hops one job delivers."""
    from repro.simulator.shard_driver import run_grid

    out = []
    for payload in payloads:
        gr = run_grid(expand([payload]), workers=0)
        rows = [strip_seconds(r) for r in gr.rows()]
        out.append({
            "rows": rows,
            "digest": digest(rows),
            "hops": sum(result_hops(r) for r in gr.results),
        })
    return out


def main(argv=None) -> int:
    from perfbench.common import SRC
    from perfbench.workloads import GRID_WORKLOADS, WORKLOADS

    sys.path[:0] = [SRC]
    ap = argparse.ArgumentParser(description="Regenerate digests.json.")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    table = {}
    for name, build in WORKLOADS.items():
        table[name] = {}
        for seed in args.seeds:
            payloads = build(seed, "full")
            if name in GRID_WORKLOADS:
                table[name][str(seed)] = inline_grid(payloads)
            else:
                table[name][str(seed)] = [
                    ref["digest"] for ref in inline_service(payloads)
                ]
            print(f"{name} seed {seed}: done", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
