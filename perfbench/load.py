"""The ``serve-warm`` traffic: a seeded request mix over keep-alive
connections in a closed loop, with every response checked.

The loop is closed because the service's callers (the CLI,
``ServiceClient``, dashboards) wait for each reply before sending the
next request.  Mix: about 50% ``/characterize/<w>`` (w uniform over the
suite), 20% ``/suite/matrix``, 20% ``/suite/matrix`` with
``If-None-Match`` (expect 304) and 10% ``/subset?budget=<b>`` over a few
fixed budgets.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

MATRIX = "/suite/matrix"
#: Budgets of the ``/subset`` requests, as shares of the whole pool's cost.
BUDGET_SHARES = (0.1, 0.25, 0.5)


class Expectations:
    """The verified response for every distinct path of the mix."""

    def __init__(self) -> None:
        self.bodies: dict[str, bytes] = {}
        self.matrix_etag = ""
        self.names: tuple[str, ...] = ()
        self.budgets: tuple[str, ...] = ()

    def check(self, path: str, conditional: bool, status: int,
              etag: str | None, body: bytes) -> bool:
        if conditional:
            return status == 304 and etag == f'"{self.matrix_etag}"' and not body
        return status == 200 and body == self.bodies[path]


def fetch(conn: http.client.HTTPConnection, path: str,
          if_none_match: str | None = None) -> tuple[int, str | None, bytes]:
    headers = {"If-None-Match": if_none_match} if if_none_match else {}
    conn.request("GET", path, headers=headers)
    response = conn.getresponse()
    body = response.read()
    return response.status, response.getheader("ETag"), body


def warm(host: str, port: int, store_root: str, config, names) -> tuple[Expectations, int, list[str]]:
    """One untimed pass over every distinct path, checked against the
    store; fills the server's response caches.

    Returns the expectations, the requests sent, and the problems found.
    """
    from repro.cluster.collection import suite_store_key, workload_store_key
    from repro.service.store import ResultStore
    from repro.workloads.suite import SUITE

    store = ResultStore(store_root)
    expect = Expectations()
    expect.names = tuple(names)
    problems: list[str] = []
    sent = 0
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for name in names:
            raw = store.get_raw(workload_store_key(config, name), touch=False)
            status, etag, body = fetch(conn, f"/characterize/{name}")
            sent += 1
            if raw is None or status != 200 or body != raw[0] or etag != f'"{raw[1]}"':
                problems.append(f"/characterize/{name}: body or ETag differs from the store")
            expect.bodies[f"/characterize/{name}"] = body

        suite_key = suite_store_key(config, SUITE)
        entry = store.get(suite_key, touch=False)
        status, etag, body = fetch(conn, MATRIX)
        sent += 1
        expect.matrix_etag = store.etag(suite_key) or ""
        if (entry is None or status != 200 or json.loads(body) != entry["matrix"]
                or etag != f'"{expect.matrix_etag}"'):
            problems.append(f"{MATRIX}: body or ETag differs from the stored matrix")
        expect.bodies[MATRIX] = body

        # The whole pool's cost fixes the budgets: a budget above it
        # selects every workload.
        status, _, body = fetch(conn, "/subset?budget=1e9")
        sent += 1
        if status != 200:
            problems.append(f"/subset?budget=1e9 answered {status}")
            return expect, sent, problems
        total = json.loads(body)["total_pool_cost_s"]
        expect.budgets = tuple(f"{share * total:.4g}" for share in BUDGET_SHARES)
        for budget in expect.budgets:
            path = f"/subset?budget={budget}"
            status, _, body = fetch(conn, path)
            sent += 1
            selection = json.loads(body) if status == 200 else {}
            if (status != 200 or not selection.get("selected")
                    or selection["cost_s"] > selection["budget_s"]):
                problems.append(f"{path}: answered {status} or broke its budget")
            expect.bodies[path] = body
    finally:
        conn.close()
    return expect, sent, problems


def _mix(seed: int, connection: int, expect: Expectations):
    """Endless seeded (path, conditional) stream for one connection."""
    rng = random.Random(f"serve-warm:{seed}:{connection}")
    characterize = [f"/characterize/{name}" for name in expect.names]
    subset = [f"/subset?budget={budget}" for budget in expect.budgets]
    while True:
        u = rng.random()
        if u < 0.5:
            yield rng.choice(characterize), False
        elif u < 0.7:
            yield MATRIX, False
        elif u < 0.9:
            yield MATRIX, True
        else:
            yield rng.choice(subset), False


def closed_loop(host: str, port: int, seed: int, seconds: float,
                expect: Expectations, connections: int) -> dict:
    """Run the mix for ``seconds`` on ``connections`` keep-alive
    connections, each sending its next request only after a reply."""
    lock = threading.Lock()
    totals = {"latencies": [], "attempted": 0, "failed": 0, "conditional": 0,
              "not_modified": 0, "characterize": 0, "errors": []}
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        latencies, errors = [], []
        sent = failed = conditional = not_modified = characterize = 0
        conn = http.client.HTTPConnection(host, port, timeout=30)
        mix = _mix(seed, index, expect)
        try:
            while time.perf_counter() < deadline:
                path, cond = next(mix)
                sent += 1
                start = time.perf_counter()
                try:
                    status, etag, body = fetch(
                        conn, path, f'"{expect.matrix_etag}"' if cond else None
                    )
                except (OSError, http.client.HTTPException) as exc:
                    failed += 1
                    errors.append(f"{path}: {type(exc).__name__}: {exc}")
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    continue
                latencies.append(time.perf_counter() - start)
                conditional += cond
                not_modified += status == 304
                characterize += path.startswith("/characterize/")
                if not expect.check(path, cond, status, etag, body):
                    failed += 1
                    errors.append(f"{path}: status {status} or body/ETag mismatch")
        finally:
            conn.close()
            with lock:
                totals["latencies"] += latencies
                totals["attempted"] += sent
                totals["failed"] += failed
                totals["conditional"] += conditional
                totals["not_modified"] += not_modified
                totals["characterize"] += characterize
                totals["errors"] += errors[:5]

    threads = [threading.Thread(target=client, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    totals["elapsed_s"] = time.perf_counter() - started
    return totals

