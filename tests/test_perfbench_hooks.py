"""The names the repository benchmark wraps stay importable, and fire.

``perfbench/pb_spans.install()`` wraps about 35 ``repro`` attributes by
name (methods, and functions at the module where they are called, such as
``repro.service.engine.find_top_k_groups``).  A rename would otherwise
surface only in a traced benchmark run, and a method that is still
defined but no longer called would not surface at all.  Fresh
interpreters run ``install()`` so the wrappers never leak into this test
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One ``stats`` request to a tenant without a journal and to a durable
#: one; prints the ``(net.batch, net.serve_one)`` span counts of each.
_SERVE_STATS = """
import asyncio, collections, json, sys, tempfile
import pb_spans

recorder = pb_spans.install()

from repro.data.synthetic import make_problem
from repro.durability import DurabilityConfig, TenantJournal
from repro.net.tenants import Tenant
from repro.service.engine import AssignmentEngine
from repro.service.requests import Stats


def spans():
    names = collections.Counter(record[0] for record in recorder.records)
    return names["net.batch"], names["net.serve_one"]


async def serve_stats(root):
    engine = AssignmentEngine(make_problem(6, 6, num_topics=4, group_size=2, seed=0))
    journal = None
    if root is not None:
        journal = TenantJournal(DurabilityConfig(root=root), "conf")
        journal.initialise(engine)
    tenant = Tenant("conf", engine, journal=journal)
    tenant.start()
    pending = tenant.submit(Stats())
    await pending.future
    await tenant.close()
    assert pending.response.ok, pending.response


counts = []
with tempfile.TemporaryDirectory() as root:
    for durable_root in (None, root):
        before = spans()
        asyncio.run(serve_stats(durable_root))
        counts.append([after - start for after, start in zip(spans(), before)])
json.dump(counts, sys.stdout)
"""


def _run_with_hooks(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )


def test_perfbench_install_finds_every_wrapped_name():
    completed = _run_with_hooks("import pb_spans; pb_spans.install()")
    assert completed.returncode == 0, completed.stderr


def test_tenant_hooks_fire_with_and_without_a_journal():
    completed = _run_with_hooks(_SERVE_STATS)
    assert completed.returncode == 0, completed.stderr
    plain, durable = json.loads(completed.stdout)
    assert plain == [1, 1]
    assert durable == [1, 1]
