"""Engine-level tests: the command line and its JSON report."""

import json

import pytest

from repro.lint import cli

VIOLATION = """\
def run(circ, deadline):
    for op in circ:
        total = 1
    return 0
"""


class TestCli:
    def test_json_report_on_a_clean_tree(self, fake_tree, tmp_path, capsys):
        root = fake_tree(
            {
                "ec/demo_checker.py": """\
                def run(circ, deadline):
                    for op in circ:
                        _check_deadline(deadline)
                    return 0
                """
            }
        )
        out = tmp_path / "report.json"
        code = cli.main(["--root", str(root), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert "all invariants hold" in capsys.readouterr().out

    def test_json_report_on_a_dirty_tree(self, fake_tree, tmp_path, capsys):
        root = fake_tree({"ec/demo_checker.py": VIOLATION})
        out = tmp_path / "report.json"
        code = cli.main(["--root", str(root), "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        rules = {f["rule"] for f in payload["findings"]}
        assert "deadline-loop" in rules
        finding = next(
            f for f in payload["findings"] if f["rule"] == "deadline-loop"
        )
        assert finding["line"] == 2

    def test_json_to_stdout_is_pure_json(self, fake_tree, capsys):
        root = fake_tree({"ec/demo_checker.py": VIOLATION})
        code = cli.main(["--root", str(root), "--json", "-"])
        assert code == 1
        captured = capsys.readouterr()
        # The machine report owns stdout; the human rendering moves to
        # stderr so ``--json - | jq`` works.
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert "deadline-loop" in captured.err

    def test_missing_root_is_an_operational_error(self, tmp_path, capsys):
        code = cli.main(["--root", str(tmp_path / "nowhere")])
        assert code == 2
        assert "no src/repro tree" in capsys.readouterr().err

    def test_only_root_and_json_are_options(self, fake_tree, capsys):
        root = fake_tree({"ec/demo_checker.py": VIOLATION})
        for flag in ("--baseline", "--no-baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["--root", str(root), flag, "x"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
