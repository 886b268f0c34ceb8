"""``repro serve`` as a subprocess, and a closed-loop load generator.

One process drives the server with at most ``nproc`` client threads,
each holding one connection at a time: POST a job, block on
``/jobs/<id>/stream`` until the terminal NDJSON line, then send the next
job.  Each job is timed from its POST; queue and run times come from
the job summary's ``submitted_at``/``started_at``/``finished_at``.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from perfbench.common import ROOT, child_pids, pid_running, src_env, vm_hwm_mb

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")
_HTTP_TIMEOUT = 60.0


class Server:
    """``python -m repro serve --port 0 --workers N`` in a child
    process.  :attr:`launched` is the ``time.time()`` of the launch and
    :attr:`banner_at` that of its "listening" line."""

    def __init__(self, workers: int):
        self.launched = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers)],
            cwd=ROOT, env=src_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        banner = self.proc.stdout.readline()
        self.banner_at = time.time()
        m = _BANNER.search(banner)
        if m is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(m.group(1))
        self.output: list[str] = []
        # keep draining so a chatty server can never block on its pipe
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=_HTTP_TIMEOUT)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def wait_healthy(self, deadline_s: float = 60.0) -> dict:
        """Poll ``/healthz`` until it answers 200; returns its body."""
        deadline = time.time() + deadline_s
        while True:
            try:
                status, body = self.request("GET", "/healthz")
                if status == 200:
                    return body
            except OSError:
                pass
            if time.time() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Peak RSS over the server process and its pool workers."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return max(vm_hwm_mb(p) for p in pids)

    def stop(self) -> list[int]:
        """SIGTERM (the server's documented shutdown path), wait, and
        return the pids of its children still running afterwards."""
        children = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        deadline = time.time() + 10
        left = [p for p in children if pid_running(p)]
        while left and time.time() < deadline:
            time.sleep(0.05)
            left = [p for p in children if pid_running(p)]
        return left


def run_job(server: Server, payload: dict) -> dict:
    """One closed-loop job: POST, then read the NDJSON stream to its
    terminal line.  Times are ``time.time()`` so they compare with the
    server's job timestamps."""
    t_post = time.time()
    status, body = server.request("POST", "/experiments", payload)
    t_posted = time.time()
    rec = {"t_post": t_post, "t_posted": t_posted, "status": status,
           "rows": [], "summary": None}
    if status != 202:
        rec["t_done"] = time.time()
        rec["error"] = body.get("error")
        return rec
    job_id = body["job"]["id"]
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=_HTTP_TIMEOUT)
    try:
        conn.request("GET", f"/jobs/{job_id}/stream")
        resp = conn.getresponse()
        for line in resp:
            msg = json.loads(line)
            if "row" in msg:
                rec["rows"].append(msg["row"])
            else:
                rec["t_done"] = time.time()
                rec["summary"] = msg["job"]
                break
    finally:
        conn.close()
    rec.setdefault("t_done", time.time())
    return rec


class LoadGenerator:
    """``clients`` threads in one process, each a closed loop."""

    def __init__(self, server: Server, payloads: list[dict], clients: int):
        self.server = server
        self.payloads = payloads
        self.clients = clients
        self._next = 0
        self._pool = ThreadPoolExecutor(max_workers=clients,
                                        thread_name_prefix="perfbench-client")

    def _client(self, lane: int, job_numbers: list[int]) -> list[dict]:
        out = []
        for n in job_numbers:
            payload_index = n % len(self.payloads)
            rec = run_job(self.server, self.payloads[payload_index])
            rec["payload"] = payload_index
            rec["lane"] = lane
            out.append(rec)
        return out

    def batch(self, jobs: int) -> tuple[float, float, list[dict]]:
        """Run ``jobs`` jobs split over the clients; returns the batch's
        ``time.time()`` start and end and every job record."""
        numbers = list(range(self._next, self._next + jobs))
        self._next += jobs
        t0 = time.time()
        futures = [
            self._pool.submit(self._client, lane, numbers[lane::self.clients])
            for lane in range(self.clients)
        ]
        records = [rec for f in futures for rec in f.result()]
        return t0, time.time(), records

    def close(self) -> None:
        self._pool.shutdown(wait=True)
