#!/usr/bin/env python3
"""Scheduling-service quickstart: submit a campaign over HTTP.

Boots the durable scheduler in-process (no subprocess, no fixed
port), submits a job spec through the bundled client, polls it to
completion, streams the records back, and proves the service's core
promise: the bytes that come over the wire are identical to running
the same campaign directly, no server involved.

The job journal lands in a temp directory; peek at it while the
script runs to see the crash-safe layout (`spec.json`, `state.json`,
`records.jsonl` per job).

Run:  PYTHONPATH=src python examples/serve_quickstart.py
"""

import json
import tempfile
import threading
from http.server import ThreadingHTTPServer

from repro.analysis.campaign import run_campaign
from repro.service import ServiceClient, SchedulerService, spec_from_dataset
from repro.service import payload
from repro.service.server import _make_handler


def main() -> None:
    # a small spec: 2 tiny synthetic trees x 2 heuristics x p in {2,4}
    spec = spec_from_dataset(scale="tiny", limit=2, processor_counts=[2, 4])
    print(f"spec: {len(spec['trees'])} tree(s), "
          f"algorithms {spec['campaign']['algorithms']}")

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as root:
        # boot: recover the journal (empty here) and start the executor
        service = SchedulerService(root, workers=2)
        service.start()
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(service))
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        print(f"serving on {base}, journal under {root}/jobs/")

        try:
            # one keep-alive connection, closed when the block ends
            with ServiceClient(base) as client:
                job = client.submit(spec)
                print(f"submitted job {job['id']} -> {job['state']}")

                # a second POST of the same work is a dedupe, not a new job
                again = client.submit(spec)
                assert again["id"] == job["id"]

                done = client.wait(job["id"], timeout=300)
                print(f"settled: {done['state']} with {done['records']} records "
                      f"in {done['elapsed']:.2f}s "
                      f"(respawns={done['respawns']}, retried={done['retried']})")

                served = client.fetch_records(job["id"])
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain()

    # the same grid, no server: the record streams must match exactly
    with tempfile.TemporaryDirectory() as tmp:
        ref_path = f"{tmp}/reference.jsonl"
        run_campaign(payload.to_instances(spec), payload.to_campaign(spec),
                     checkpoint=ref_path)
        with open(ref_path, "rb") as fh:
            reference = fh.read()
    assert served == reference, "served records diverged from a direct run"
    print(f"byte-identical to a serverless campaign ({len(served)} bytes)")
    first = json.loads(served.split(b"\n")[0])
    print(f"first record: {first['tree']} {first['heuristic']} "
          f"p={first['p']} makespan={first['makespan']:g}")


if __name__ == "__main__":
    main()
