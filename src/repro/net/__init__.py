"""Asyncio network front end for the serving subsystem.

:mod:`repro.service` is a synchronous, single-engine stack: one
:class:`~repro.service.engine.AssignmentEngine`, dispatched to through
:class:`~repro.service.session.EngineSession`, behind one blocking
JSON-lines loop over stdio.  This package is the production-shaped
layer above it — stdlib ``asyncio`` only, no new dependencies:

* :mod:`repro.net.server` — :class:`AssignmentServer`: a TCP JSON-lines
  server fielding many concurrent clients from one process, with
  tenant-management requests (create / evict / list) and graceful
  drain/shutdown.
* :mod:`repro.net.tenants` — multi-tenancy: one resident engine *per
  conference id*, each with its own single-thread executor so CPU-bound
  solver work never blocks the event loop.  The worker takes every
  request queued by any client into one batch and serves them one at a
  time through the same :meth:`EngineSession.dispatch
  <repro.service.session.EngineSession.dispatch>` as the stdio loop.
* :mod:`repro.net.admission` — bounded queue depth per tenant and per
  process; requests beyond the bound are answered immediately with the
  structured ``overloaded`` error type instead of growing the backlog.
* :mod:`repro.net.client` — an asyncio JSON-lines client plus the
  closed-loop load generator behind ``benchmarks/bench_serve_load.py``.

The wire protocol is the JSON-lines vocabulary of
:mod:`repro.service.requests`, extended with a ``tenant`` field for
routing and the tenant-management kinds; see ``docs/service.md``
("Network serving") for the full contract.
"""

from repro.net.admission import AdmissionController
from repro.net.client import LoadReport, NetClient, run_load
from repro.net.server import MANAGEMENT_KINDS, AssignmentServer
from repro.net.tenants import Tenant, TenantManager

__all__ = [
    "AdmissionController",
    "AssignmentServer",
    "LoadReport",
    "MANAGEMENT_KINDS",
    "NetClient",
    "Tenant",
    "TenantManager",
    "run_load",
]
