"""Fixture tests for the ``resource-leak`` dataflow rule."""

from repro.lint.rules import ResourceLeakRule

from tests.lint.conftest import lint_with


class TestExceptionalPathLeaks:
    def test_leak_only_on_the_exceptional_path_is_flagged(self, fake_tree):
        # The happy path closes the handle; a raise between acquisition
        # and release strands it.  This is the bug class a syntactic
        # "is close() called somewhere" check can never see.
        root = fake_tree(
            {
                "harness/demo.py": """\
                def handshake(path):
                    fh = open(path)
                    data = fh.read()
                    validate(data)
                    fh.close()
                """
            }
        )
        findings = lint_with(root, ResourceLeakRule())
        assert [f.rule for f in findings] == ["resource-leak"]
        assert findings[0].line == 2
        assert "exceptional paths" in findings[0].message
        assert "normal" not in findings[0].message

    def test_close_in_finally_covers_every_path(self, fake_tree):
        root = fake_tree(
            {
                "harness/demo.py": """\
                def handshake(path):
                    fh = open(path)
                    try:
                        data = fh.read()
                        validate(data)
                    finally:
                        fh.close()
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []

    def test_with_statement_covers_every_path(self, fake_tree):
        root = fake_tree(
            {
                "harness/demo.py": """\
                def slurp(path):
                    with open(path) as fh:
                        data = fh.read()
                    return data
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []


class TestNormalPathLeaks:
    def test_never_released_handle_is_flagged(self, fake_tree):
        root = fake_tree(
            {
                "service/demo.py": """\
                def probe(path):
                    fh = open(path)
                    return 0
                """
            }
        )
        findings = lint_with(root, ResourceLeakRule())
        assert [f.rule for f in findings] == ["resource-leak"]
        assert findings[0].line == 2
        assert "normal" in findings[0].message

    def test_pipe_with_one_end_closed_still_leaks_the_other(self, fake_tree):
        root = fake_tree(
            {
                "harness/demo.py": """\
                import os


                def mkpipe():
                    r, w = os.pipe()
                    os.close(r)
                    return 0
                """
            }
        )
        findings = lint_with(root, ResourceLeakRule())
        assert [f.rule for f in findings] == ["resource-leak"]
        assert findings[0].line == 5
        assert "pipe file descriptors" in findings[0].message

    def test_socket_closed_only_on_the_happy_path_is_flagged(self, fake_tree):
        root = fake_tree(
            {
                "service/demo.py": """\
                import socket


                def probe(path):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.bind(path)
                    sock.close()
                """
            }
        )
        findings = lint_with(root, ResourceLeakRule())
        assert [f.rule for f in findings] == ["resource-leak"]
        assert findings[0].line == 5
        assert "a socket" in findings[0].message
        assert "exceptional paths" in findings[0].message


class TestEscapes:
    def test_returned_handle_is_the_callers_problem(self, fake_tree):
        root = fake_tree(
            {
                "harness/demo.py": """\
                def acquire(path):
                    fh = open(path)
                    return fh
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []

    def test_handle_passed_to_another_call_escapes(self, fake_tree):
        root = fake_tree(
            {
                "harness/demo.py": """\
                def register(path, registry):
                    fh = open(path)
                    registry.track(fh)
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []

    def test_nonlocal_handle_is_owned_by_the_enclosing_scope(self, fake_tree):
        # Regression: a closure assigning through ``nonlocal`` hands the
        # lifetime to the enclosing function (which closes it in its own
        # finally) — the inner scope must not be flagged.
        root = fake_tree(
            {
                "fuzz/demo.py": """\
                def outer(path):
                    fh = None

                    def opener():
                        nonlocal fh
                        fh = open(path)

                    opener()
                    try:
                        return probe(fh)
                    finally:
                        if fh is not None:
                            fh.close()
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []


class TestScope:
    def test_pure_packages_are_exempt(self, fake_tree):
        # Raw OS handles outside harness/service/fuzz are someone
        # else's invariant (the pure checker layers never touch them).
        root = fake_tree(
            {
                "ec/demo.py": """\
                def probe(path):
                    fh = open(path)
                    return 0
                """
            }
        )
        assert lint_with(root, ResourceLeakRule()) == []
