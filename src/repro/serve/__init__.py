"""Resident query service with admission control and micro-batching.

Everything below :mod:`repro.serve` turns the one-shot batch machinery
into a long-lived server (the paper's §1 influence / market-analysis
applications are standing workloads):

- :class:`~repro.serve.service.QueryService` owns a warm
  :class:`~repro.engine.ReverseSkylineEngine`, the process-wide plan
  cache and a *persistent* worker pool fed through the existing
  shared-memory manifests — dataset and plans published once at
  startup, never per-request.
- :class:`~repro.serve.admission.AdmissionController` sheds load
  *before* it queues: per-tenant token buckets plus a bounded admission
  queue, both failing with a typed
  :class:`~repro.errors.OverloadError` carrying ``retry_after_s``.
- :class:`~repro.serve.batcher.MicroBatcher` collects in-flight
  queries over a small time/size window and coalesces compatible ones
  into the batch planner's layout-fingerprint groups (shared scans)
  when its measured CPU costs say a group beats singles spread over
  the pool.
- :class:`~repro.serve.server.ServeServer` speaks a newline-delimited
  JSON protocol over TCP; :class:`~repro.serve.client.ServeClient` and
  :func:`~repro.serve.client.run_closed_loop` are the matching client
  and closed-loop load driver (``repro-skyline serve`` /
  ``repro-skyline serve-load``).
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.batcher import MicroBatcher
from repro.serve.client import LoadReport, ServeClient, run_closed_loop
from repro.serve.server import ServeServer, serve_in_background, run_server
from repro.serve.service import QueryService, ServiceConfig

__all__ = [
    "AdmissionController",
    "LoadReport",
    "MicroBatcher",
    "QueryService",
    "ServeClient",
    "ServeServer",
    "ServiceConfig",
    "TokenBucket",
    "run_closed_loop",
    "run_server",
    "serve_in_background",
]
