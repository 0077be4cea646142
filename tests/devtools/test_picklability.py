"""SSTD009: process-queue payloads must be statically picklable."""

from pathlib import Path

import repro.system.jobs as jobs_module
from repro.devtools.lint import all_rules, lint_source

RULES = all_rules(["SSTD009"])


def findings(src: str):
    return lint_source(src, path="case.py", rules=RULES)


class TestPayloadSpec:
    def test_lambda_payload_rejected(self):
        src = '''
from repro.workqueue.task import PayloadSpec

spec = PayloadSpec(lambda x: x + 1, (1,))
'''
        result = findings(src)
        assert len(result) == 1
        assert "lambda" in result[0].message
        assert "decode_shard_shm_payload" in result[0].message

    def test_module_level_function_accepted(self):
        src = '''
from repro.workqueue.task import PayloadSpec

def work(x):
    return x + 1

spec = PayloadSpec(work, (1,))
'''
        assert findings(src) == []

    def test_closure_payload_rejected(self):
        src = '''
from repro.workqueue.task import PayloadSpec

def build():
    def inner(x):
        return x
    return PayloadSpec(inner, ())
'''
        result = findings(src)
        assert len(result) == 1
        assert "closure" in result[0].message

    def test_unpicklable_arguments_rejected(self):
        src = '''
import threading
from repro.workqueue.task import PayloadSpec

def work(fn, items, lock):
    pass

spec = PayloadSpec(
    work,
    (lambda: 1, (x for x in range(3)), threading.Lock()),
)
'''
        result = findings(src)
        reasons = [f.message for f in result]
        assert len(result) == 3
        assert any("lambda" in m for m in reasons)
        assert any("generator" in m for m in reasons)
        assert any("Lock" in m for m in reasons)

    def test_noqa_suppresses(self):
        src = '''
from repro.workqueue.task import PayloadSpec

spec = PayloadSpec(lambda x: x, ())  # noqa: SSTD009
'''
        assert findings(src) == []


class TestProcessSubmit:
    def test_lambda_submitted_to_process_queue_rejected(self):
        src = '''
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import Task

wq = ProcessWorkQueue(n_workers=2)
wq.submit(Task(task_id=1, job_id=1, fn=lambda: 1))
'''
        result = findings(src)
        assert len(result) == 1
        assert "process boundary" in result[0].message

    def test_thread_queue_submit_accepts_closures(self):
        # Only process-bound submits are flagged; the thread backend
        # shares an address space and takes closures by design.
        src = '''
from repro.workqueue.local import LocalWorkQueue
from repro.workqueue.task import Task

wq = LocalWorkQueue(n_workers=2)
wq.submit(Task(task_id=1, job_id=1, fn=lambda: 1))
'''
        assert findings(src) == []


class TestRealJobsModule:
    def test_decode_shard_shm_payload_pattern_is_clean(self):
        # The sanctioned pattern: a module-level decode function wrapped
        # in PayloadSpec by shm_shard_task_spec.
        source = Path(jobs_module.__file__).read_text()
        assert "PayloadSpec(" in source
        assert "decode_shard_shm_payload" in source
        result = lint_source(source, path=jobs_module.__file__, rules=RULES)
        assert result == [], [f.format() for f in result]

    def test_lambda_variant_of_jobs_module_is_flagged(self):
        source = Path(jobs_module.__file__).read_text()
        broken = source.replace(
            "PayloadSpec(\n        decode_shard_shm_payload,",
            "PayloadSpec(\n        lambda *a: None,",
        )
        assert broken != source, "jobs.py no longer matches the fixture edit"
        result = lint_source(broken, path="broken_jobs.py", rules=RULES)
        assert [f.rule_id for f in result] == ["SSTD009"]
