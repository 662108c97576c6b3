"""CLI contract: exit codes 0/1/2, reports, and the real tree."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lintkit import lint_paths
from repro.lintkit.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "THRESHOLD = 0.5\n"
DIRTY = "import numpy as np\n\nvalues = np.random.normal(size=8)\n"


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A throwaway lint root the CLI runs against."""
    (tmp_path / "src" / "repro" / "analysis").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, repo, capsys):
        write(repo, "src/repro/analysis/mod.py", CLEAN)
        assert main(["src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, repo, capsys):
        write(repo, "src/repro/analysis/mod.py", DIRTY)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "RL102" in out
        assert "FAILED" in out

    def test_no_paths_is_a_usage_error(self, repo, capsys):
        assert main([]) == 2
        assert "provide at least one path" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, repo, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestReports:
    def test_json_format_and_output_artifact(self, repo, capsys, tmp_path):
        write(repo, "src/repro/analysis/mod.py", DIRTY)
        artifact = tmp_path / "report.json"
        assert main(["src", "--format", "json", "--output", str(artifact)]) == 1

        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(artifact.read_text())
        assert stdout_payload == file_payload
        assert file_payload["clean"] is False
        assert file_payload["files_scanned"] == 1
        rules = [f["rule"] for f in file_payload["findings"]]
        assert rules == ["RL102"]

    def test_list_rules(self, repo, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL101", "RL104", "RL107"):
            assert rule_id in out

    def test_explain_prints_rationale_and_examples(self, repo, capsys):
        assert main(["--explain", "RL104"]) == 0
        out = capsys.readouterr().out
        assert "identity-leak" in out
        assert "compliant:" in out
        assert "non-compliant:" in out
        assert "EXECUTION_ONLY" in out

    def test_explain_unknown_rule_is_a_usage_error(self, repo, capsys):
        assert main(["--explain", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestRealTree:
    def test_shipped_src_is_clean_without_any_baseline(self):
        findings = lint_paths(
            [str(REPO_ROOT / "src")], root=str(REPO_ROOT)
        )
        assert findings == [], [f.location() for f in findings]
