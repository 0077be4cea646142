"""Each SSTD rule detects a seeded violation and passes clean code."""

from repro.devtools.lint import lint_source


def rule_ids(src: str, path: str = "x.py", select=None) -> list[str]:
    from repro.devtools.lint import all_rules

    rules = all_rules(select) if select else None
    return [f.rule_id for f in lint_source(src, path=path, rules=rules)]


class TestSSTD001BroadExcept:
    def test_bare_except_flagged(self):
        src = "__all__ = []\ntry:\n    pass\nexcept:\n    pass\n"
        assert "SSTD001" in rule_ids(src)

    def test_silent_broad_except_flagged(self):
        src = (
            "__all__ = []\n"
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        assert "SSTD001" in rule_ids(src)

    def test_broad_except_binding_error_passes(self):
        src = (
            "__all__ = []\n"
            "err = None\n"
            "try:\n    pass\nexcept Exception as exc:\n    err = exc\n"
        )
        assert "SSTD001" not in rule_ids(src)

    def test_broad_except_reraising_passes(self):
        src = (
            "__all__ = []\n"
            "try:\n    pass\nexcept Exception:\n    raise\n"
        )
        assert "SSTD001" not in rule_ids(src)

    def test_specific_except_passes(self):
        src = "__all__ = []\ntry:\n    pass\nexcept ValueError:\n    pass\n"
        assert "SSTD001" not in rule_ids(src)


SWALLOW = '''
__all__ = ["quiet"]


def quiet(fn):
    try:
        return fn()
    except Exception as exc:{comment}
        return None
'''


class TestSSTD001RuntimePackages:
    def test_broad_swallow_in_runtime_package(self):
        findings = lint_source(
            SWALLOW.format(comment=""), path="src/repro/workqueue/wq.py"
        )
        assert [f.rule_id for f in findings] == ["SSTD001"]
        assert "does not re-raise" in findings[0].message

    def test_deliberate_sanction_allows_swallow(self):
        src = SWALLOW.format(comment="  # deliberate: task errors are data")
        assert rule_ids(src, path="src/repro/workqueue/wq.py") == []

    def test_outside_runtime_packages_not_gated(self):
        src = SWALLOW.format(comment="")
        assert rule_ids(src, path="src/repro/core/tool.py") == []


class TestSSTD002MutableDefaults:
    def test_list_default_flagged(self):
        src = "__all__ = []\ndef f(acc=[]):\n    return acc\n"
        assert "SSTD002" in rule_ids(src)

    def test_dict_display_and_call_flagged(self):
        src = "__all__ = []\ndef f(a={}, b=dict()):\n    return a, b\n"
        assert rule_ids(src).count("SSTD002") == 2

    def test_kwonly_default_flagged(self):
        src = "__all__ = []\ndef f(*, acc=set()):\n    return acc\n"
        assert "SSTD002" in rule_ids(src)

    def test_none_default_passes(self):
        src = "__all__ = []\ndef f(acc=None):\n    return acc or []\n"
        assert "SSTD002" not in rule_ids(src)

    def test_immutable_defaults_pass(self):
        src = "__all__ = []\ndef f(a=(), b=1, c='x'):\n    return a, b, c\n"
        assert "SSTD002" not in rule_ids(src)


class TestSSTD004Determinism:
    def test_unseeded_default_rng_flagged(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "rng = np.random.default_rng()\n"
        )
        assert "SSTD004" in rule_ids(src)

    def test_seeded_default_rng_passes(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "rng = np.random.default_rng(7)\n"
        )
        assert "SSTD004" not in rule_ids(src)

    def test_global_state_call_flagged(self):
        src = "import numpy as np\n__all__ = []\nx = np.random.rand(3)\n"
        assert "SSTD004" in rule_ids(src)

    def test_np_random_seed_flagged(self):
        src = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"
        assert "SSTD004" in rule_ids(src)

    def test_stdlib_random_flagged(self):
        src = "import random\n__all__ = []\nx = random.random()\n"
        assert "SSTD004" in rule_ids(src)

    def test_seeded_stdlib_random_instance_passes(self):
        src = "import random\n__all__ = []\nrng = random.Random(3)\n"
        assert "SSTD004" not in rule_ids(src)

    def test_from_import_alias_resolved(self):
        src = (
            "from numpy.random import default_rng\n__all__ = []\n"
            "rng = default_rng()\n"
        )
        assert "SSTD004" in rule_ids(src)

    def test_generator_annotation_is_not_a_call(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "def f(rng: np.random.Generator) -> None:\n    pass\n"
        )
        assert "SSTD004" not in rule_ids(src)


class TestSSTD005Numerics:
    def test_raw_log_in_probability_module_flagged(self):
        src = "import numpy as np\n__all__ = []\nx = np.log([0.5])\n"
        assert "SSTD005" in rule_ids(src, path="src/repro/hmm/fake.py")

    def test_raw_exp_in_core_flagged(self):
        src = "import numpy as np\n__all__ = []\nx = np.exp([0.5])\n"
        assert "SSTD005" in rule_ids(src, path="src/repro/core/fake.py")

    def test_sanctioned_module_exempt(self):
        src = "import numpy as np\n__all__ = []\nx = np.log([0.5])\n"
        assert "SSTD005" not in rule_ids(src, path="src/repro/hmm/utils.py")

    def test_outside_probability_packages_exempt(self):
        src = "import numpy as np\n__all__ = []\nx = np.exp([0.5])\n"
        assert "SSTD005" not in rule_ids(src, path="src/repro/streams/fake.py")

    def test_math_log_flagged_in_scope(self):
        src = "import math\n__all__ = []\nx = math.log(0.5)\n"
        assert "SSTD005" in rule_ids(src, path="src/repro/core/fake.py")


class TestSSTD006Exports:
    def test_missing_all_flagged(self):
        src = "x = 1\n"
        assert "SSTD006" in rule_ids(src, path="src/repro/core/fake.py")

    def test_declared_all_passes(self):
        src = '__all__ = ["x"]\nx = 1\n'
        assert "SSTD006" not in rule_ids(src, path="src/repro/core/fake.py")

    def test_private_module_exempt(self):
        src = "x = 1\n"
        assert "SSTD006" not in rule_ids(src, path="src/repro/core/_fake.py")

    def test_package_init_must_comply(self):
        src = "x = 1\n"
        assert "SSTD006" in rule_ids(src, path="src/repro/core/__init__.py")
