"""The durable scheduling service: a crash-safe job API over the
supervised campaign runtime.

``repro serve`` exposes the campaign engine as a small JSON HTTP
service (stdlib :mod:`http.server`): submit a grid with
``POST /jobs``, poll ``GET /jobs/<id>``, fetch the record stream with
``GET /jobs/<id>/records``. Every job is journaled to an on-disk job
directory with atomic state transitions and a per-record-flushed
checkpoint, so a ``kill -9`` of the server resumes every interrupted
job on restart and finishes it **byte-identical** to an uninterrupted
run -- the same resume contract the CLI campaigns honour.
"""

from .jobs import Job, JobStore
from .payload import canonical_spec, job_key, spec_from_dataset
from .server import SchedulerService, serve

__all__ = [
    "Job",
    "JobStore",
    "SchedulerService",
    "ServiceClient",
    "canonical_spec",
    "job_key",
    "serve",
    "spec_from_dataset",
]


def __getattr__(name):
    # lazy, so `python -m repro.service.client` doesn't import the
    # client twice (runpy warns when the package already did)
    if name == "ServiceClient":
        from .client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
