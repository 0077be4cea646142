"""SSTD013: set/dict-view iteration order must not reach kernel output."""

from repro.devtools.lint import all_rules, lint_source
from repro.devtools.lint.rules.kernel_determinism import TARGET_MODULES

RULES = all_rules(["SSTD013"])


def findings_in(src: str, module: str = "repro.hmm.batch"):
    return lint_source(src, path="kernel.py", rules=RULES, module=module)


ACCUMULATING_LOOP = '''
__all__ = ["total_mass"]


def total_mass(weights):
    claims = set(weights)
    total = 0.0
    for claim in claims:
        total += weights[claim]
    return total
'''

ORDERED_LOOP = '''
__all__ = ["total_mass"]


def total_mass(weights):
    claims = set(weights)
    total = 0.0
    for claim in sorted(claims):
        total += weights[claim]
    return total
'''


class TestAccumulatingLoops:
    def test_float_accumulation_over_set_flagged(self):
        findings = findings_in(ACCUMULATING_LOOP)
        assert len(findings) == 1
        assert findings[0].rule_id == "SSTD013"
        assert "set" in findings[0].message
        assert "sorted" in findings[0].message

    def test_sorted_iteration_is_clean(self):
        assert findings_in(ORDERED_LOOP) == []

    def test_list_iteration_is_clean(self):
        src = ACCUMULATING_LOOP.replace("set(weights)", "list(weights)")
        assert findings_in(src) == []

    def test_loop_without_accumulation_is_clean(self):
        src = '''
__all__ = ["touch"]


def touch(claims: set):
    seen = {}
    for claim in claims:
        seen[claim] = True
    return seen
'''
        assert findings_in(src) == []

    def test_task_ordering_via_append_flagged(self):
        src = '''
__all__ = ["schedule"]


def schedule(ready: set):
    order = []
    for task in ready:
        order.append(task)
    return order
'''
        findings = findings_in(src, module="repro.system.jobs")
        assert len(findings) == 1
        assert "append" in findings[0].message

    def test_dict_view_feeding_yield_flagged(self):
        src = '''
__all__ = ["emit"]


def emit(table):
    for key, value in table.items():
        yield key, value
'''
        findings = findings_in(src)
        assert len(findings) == 1
        assert "dict .items() view" in findings[0].message


class TestDirectConsumers:
    def test_sum_over_set_flagged(self):
        src = '''
__all__ = ["mass"]


def mass(parts: set):
    return sum(parts)
'''
        findings = findings_in(src)
        assert len(findings) == 1
        assert "sum()" in findings[0].message

    def test_list_comprehension_over_set_flagged(self):
        src = '''
__all__ = ["as_rows"]


def as_rows(ids: frozenset):
    return [i * 2 for i in ids]
'''
        findings = findings_in(src, module="repro.hmm.utils")
        assert len(findings) == 1
        assert "comprehension" in findings[0].message

    def test_claim_encoding_from_set_flagged_in_report_table(self):
        src = '''
__all__ = ["encode"]


def encode(claim_column):
    claim_ids = list(set(claim_column))
    return {claim_id: k for k, claim_id in enumerate(claim_ids)}
'''
        findings = findings_in(src, module="repro.core.acs")
        assert len(findings) == 1
        assert "list()" in findings[0].message
        fixed = src.replace("list(set(claim_column))", "sorted(set(claim_column))")
        assert findings_in(fixed, module="repro.core.acs") == []

    def test_safe_consumers_are_clean(self):
        src = '''
__all__ = ["stats"]


def stats(parts: set):
    return sorted(parts), min(parts), max(parts), len(parts)
'''
        assert findings_in(src) == []


class TestSanctions:
    def test_noqa_suppresses(self):
        src = ACCUMULATING_LOOP.replace(
            "    for claim in claims:",
            "    for claim in claims:  # noqa: SSTD013",
        )
        assert findings_in(src) == []

    def test_order_independent_comment_sanctions(self):
        src = ACCUMULATING_LOOP.replace(
            "    for claim in claims:",
            "    for claim in claims:  # order-independent",
        )
        assert findings_in(src) == []

    def test_rule_is_scoped_to_kernel_modules(self):
        assert findings_in(ACCUMULATING_LOOP, module="repro.hmm.selection") == []
        assert findings_in(ACCUMULATING_LOOP, module="somewhere.else") == []

    def test_target_modules_are_the_kernel_surface(self):
        assert TARGET_MODULES == (
            "repro.core.acs",
            "repro.hmm.batch",
            "repro.hmm.kernels",
            "repro.hmm.kernels.numpy_ref",
            "repro.hmm.utils",
            "repro.system.jobs",
        )
