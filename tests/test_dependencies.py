"""Dependency honesty: numpy is the only runtime dependency.

The front doors (``repro run``, ``repro report``, ``repro serve``) must
start and finish with scipy and networkx unimportable — networkx is a
test-only cross-validation extra and scipy is not used at all.  Each
check runs in a fresh interpreter, because this test process has long
since imported whatever the rest of the suite needed.  Nothing here
measures time.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import urllib.request

import pytest

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

#: Prepended to every blocked run: ``import scipy`` / ``import networkx``
#: raise ImportError, in this interpreter and in its forked pool workers.
BLOCK = 'import sys; sys.modules["scipy"] = sys.modules["networkx"] = None\n'

#: ``python -m repro ARGS`` under :data:`BLOCK`.
CLI = BLOCK + textwrap.dedent("""\
    import runpy
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
""")

TINY_GRID = {
    "grid": {
        "mhk": [[2, 4, 1]],
        "loop": "closed",
        "patterns": ["uniform"],
        "loads": [40],
        "seeds": [0],
    }
}


def _python(code: str, *args: str, timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=REPO, env=ENV,
        capture_output=True, text=True, timeout=timeout,
    )


def _request(port: int, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data)
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, resp.read().decode()


def test_front_door_imports_stay_within_budget():
    proc = _python(textwrap.dedent("""\
        import sys
        import repro.cli, repro.service, repro.reports, repro.experiments
        banned = ("scipy", "networkx", "repro.analysis.reporting")
        print(sorted(m for m in banned if m in sys.modules))
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_networkx_bridge_loads_on_first_access():
    pytest.importorskip("networkx")
    proc = _python(textwrap.dedent("""\
        import sys
        import repro.graphs
        before = "networkx" in sys.modules
        from repro.graphs import to_networkx
        print(before, "networkx" in sys.modules, to_networkx.__module__)
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "repro.graphs.nx_bridge"]


def test_unknown_graphs_attribute_still_raises():
    import repro.graphs

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.graphs.no_such_name


def test_run_without_scipy_or_networkx():
    proc = _python(CLI, "run", "examples/iid_dependability.json",
                   "--workers", "0")
    assert proc.returncode == 0, proc.stderr
    assert "iid" in proc.stdout


def test_report_bundle_without_scipy_or_networkx(tmp_path):
    out = tmp_path / "bundle"
    proc = _python(CLI, "report", "paper-tables", "--quick",
                   "--workers", "0", "--bundle", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").is_file()


def test_serve_round_trip_without_scipy_or_networkx():
    server = subprocess.Popen(
        [sys.executable, "-u", "-c", CLI, "serve", "--port", "0",
         "--workers", "1"],
        cwd=REPO, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", banner)
        assert m, f"no port in banner {banner!r}: {server.stderr.read()}"
        port = int(m.group(1))

        status, body = _request(port, "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"

        _, body = _request(port, "/experiments", TINY_GRID)
        job_id = json.loads(body)["job"]["id"]
        _, body = _request(port, f"/jobs/{job_id}/stream")
        lines = [json.loads(line) for line in body.splitlines()]
        assert len(lines) == 2
        assert lines[-1]["job"]["state"] == "done"
    finally:
        server.send_signal(signal.SIGTERM)
        _, err = server.communicate(timeout=60)
    # SIGTERM stops the daemon the way Ctrl-C does: exit code 130
    assert server.returncode == 130, err
    assert "Traceback" not in err


def test_package_versions_agree():
    with open(os.path.join(REPO, "pyproject.toml")) as fh:
        project = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
    with open(os.path.join(REPO, "src", "repro", "__init__.py")) as fh:
        runtime = re.search(r'^__version__\s*=\s*"([^"]+)"', fh.read(), re.M)
    assert project and runtime
    assert project.group(1) == runtime.group(1) == repro.__version__
