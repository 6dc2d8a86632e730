"""A stdlib client for the scheduling service (plus a tiny CLI).

:class:`ServiceClient` wraps the JSON API with :mod:`http.client` --
no dependencies, importable anywhere the package is. Each thread
using a client keeps one persistent HTTP/1.1 connection to the
server. A request on a reused connection that fails before any
response (the server closed it when idle, or restarted) is retried
once on a fresh connection; that is safe because every route is
idempotent (``POST /jobs`` is keyed by content). A failure on a fresh
connection raises. The module is
runnable (``python -m repro.service.client``) so shell scripts and the
CI smoke drill can submit, wait and fetch without writing Python::

    python -m repro.service.client spec  --out spec.json --scale tiny
    python -m repro.service.client submit spec.json --base http://...
    python -m repro.service.client wait <job-id>  --timeout 300
    python -m repro.service.client fetch <job-id> --out records.jsonl
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
import weakref
from typing import Any

__all__ = ["ServiceClient", "ServiceError", "main"]


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and decoded body."""

    def __init__(self, status: int, body: Any) -> None:
        detail = body.get("error") if isinstance(body, dict) else body
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.body = body


#: how a dropped keep-alive connection shows before any response
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """Thin JSON-over-HTTP client; one instance per server.

    Usable from several threads (one connection each); :meth:`close`
    or a ``with`` block closes every connection the client opened.
    """

    def __init__(self, base: str, timeout: float = 30.0) -> None:
        self.base = base.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// base URL: {base!r}")
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: weakref.WeakSet = weakref.WeakSet()

    def close(self) -> None:
        """Close the open connections (a later request reconnects)."""
        with self._lock:
            opened = list(self._opened)
        for conn in opened:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._lock:
                self._opened.add(conn)
        return conn

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            except _STALE:
                if not reused:
                    raise
                conn.close()  # dropped while idle: once more, fresh
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            conn.close()  # never reuse a connection in an unknown state
            raise

    def _request(
        self, method: str, path: str, payload: Any = None, *, raw: bool = False
    ):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        status, body = self._exchange(method, path, data, headers)
        if raw and 200 <= status < 300:
            return body
        try:
            decoded = json.loads(body) if body else {}
        except json.JSONDecodeError:
            decoded = body.decode(errors="replace")
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    # -- the API --------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def ready(self) -> dict:
        return self._request("GET", "/readyz")

    def submit(self, spec: dict) -> dict:
        """POST the job; retries transparently on 429 backpressure."""
        while True:
            try:
                return self._request("POST", "/jobs", spec)
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                hint = 1.0
                if isinstance(exc.body, dict):
                    hint = float(exc.body.get("retry_after", 1.0))
                time.sleep(hint)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.25
    ) -> dict:
        """Poll until the job settles (done/failed/cancelled)."""
        deadline = time.monotonic() + timeout
        while True:
            st = self.status(job_id)
            if st["state"] in ("done", "failed", "cancelled"):
                return st
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {st['state']} after {timeout:g}s"
                )
            time.sleep(poll)

    def fetch_records(self, job_id: str) -> bytes:
        """The job's record stream as raw JSONL bytes (complete lines
        only -- byte-comparable against a local campaign checkpoint)."""
        return self._request("GET", f"/jobs/{job_id}/records", raw=True)


# ----------------------------------------------------------------------
# CLI for shell scripts and the CI smoke drill
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="talk to a running `repro serve`",
    )
    ap.add_argument("--base", default="http://127.0.0.1:8042",
                    help="server base URL (default %(default)s)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("spec", help="write a demo job spec (synthetic dataset)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--scale", default="tiny")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--algorithms", default="ParSubtrees,ParDeepestFirst")
    sp.add_argument("--procs", default="2,4")

    sb = sub.add_parser("submit", help="POST a spec file; prints the job id")
    sb.add_argument("spec")
    sb.add_argument("--wait", action="store_true")
    sb.add_argument("--timeout", type=float, default=300.0)

    for name, hlp in (
        ("status", "print one job's state"),
        ("wait", "block until a job settles"),
        ("cancel", "cancel a queued or running job"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("job_id")
        if name == "wait":
            p.add_argument("--timeout", type=float, default=300.0)

    fp = sub.add_parser("fetch", help="download a job's records.jsonl")
    fp.add_argument("job_id")
    fp.add_argument("--out", required=True)

    sub.add_parser("health", help="GET /healthz")
    sub.add_parser("ready", help="GET /readyz")

    args = ap.parse_args(argv)
    with ServiceClient(args.base) as client:
        return _run(args, client)


def _run(args, client: ServiceClient) -> int:
    import sys

    if args.cmd == "spec":
        from .payload import spec_from_dataset

        spec = spec_from_dataset(
            scale=args.scale,
            limit=args.limit,
            algorithms=[a for a in args.algorithms.split(",") if a],
            processor_counts=[int(p) for p in args.procs.split(",") if p],
        )
        with open(args.out, "w") as fh:
            json.dump(spec, fh)
        print(f"wrote {args.out} ({len(spec['trees'])} tree(s))")
        return 0
    if args.cmd == "submit":
        with open(args.spec) as fh:
            spec = json.load(fh)
        job = client.submit(spec)
        if args.wait:
            job = client.wait(job["id"], timeout=args.timeout)
        print(json.dumps(job))
        return 0 if job.get("state") != "failed" else 1
    if args.cmd == "status":
        print(json.dumps(client.status(args.job_id)))
        return 0
    if args.cmd == "wait":
        st = client.wait(args.job_id, timeout=args.timeout)
        print(json.dumps(st))
        return 0 if st["state"] == "done" else 1
    if args.cmd == "cancel":
        print(json.dumps(client.cancel(args.job_id)))
        return 0
    if args.cmd == "fetch":
        data = client.fetch_records(args.job_id)
        with open(args.out, "wb") as fh:
            fh.write(data)
        lines = data.count(bytes((10,)))
        print(f"wrote {args.out} ({lines} record(s))")
        return 0
    if args.cmd == "health":
        print(json.dumps(client.health()))
        return 0
    if args.cmd == "ready":
        try:
            print(json.dumps(client.ready()))
            return 0
        except ServiceError as exc:
            print(json.dumps(exc.body), file=sys.stderr)
            return 1
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
