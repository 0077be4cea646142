"""The builtin exception hierarchy SSTD014 uses to model handlers."""

from repro.devtools.lint.rules.resources import exception_caught


class TestExceptionCaught:
    def test_exact_and_dotted_names(self):
        assert exception_caught("ValueError", frozenset({"ValueError"}))
        assert exception_caught("zmq.ZMQError", frozenset({"ZMQError"}))

    def test_builtin_hierarchy(self):
        assert exception_caught("TimeoutError", frozenset({"OSError"}))
        assert exception_caught("KeyError", frozenset({"LookupError"}))
        assert exception_caught(
            "UnicodeDecodeError", frozenset({"ValueError"})
        )
        assert not exception_caught("ValueError", frozenset({"OSError"}))

    def test_broad_frames(self):
        assert exception_caught("ValueError", frozenset({"Exception"}))
        assert exception_caught("CustomError", frozenset({"Exception"}))
        assert exception_caught("SystemExit", frozenset({"BaseException"}))
        assert not exception_caught("SystemExit", frozenset({"Exception"}))

    def test_unknown_class_star(self):
        # "*" (statically unknown class) only stops at broad handlers.
        assert not exception_caught("*", frozenset({"ValueError"}))
        assert exception_caught("*", frozenset({"Exception"}))
        assert exception_caught("*", frozenset({"*"}))
