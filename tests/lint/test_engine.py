"""Engine-level behaviour: suppressions, the CLI, and the tier-1 gate
that keeps the real tree clean."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = "import random\nx = random.random()\n"


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\n"
            "x = random.random()  # repro-lint: disable=RL003 -- test fixture\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert len(result.suppressed) == 1

    def test_line_above_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\n"
            "# repro-lint: disable=RL003 -- justified here\n"
            "x = random.random()\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new

    def test_disable_all(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\nx = random.random()  # repro-lint: disable=all\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new

    def test_wrong_id_does_not_suppress(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\nx = random.random()  # repro-lint: disable=RL006\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in result.new] == ["RL003"]

    def test_file_level_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "# repro-lint: disable-file=RL003\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.random()\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert len(result.suppressed) == 2


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL003" in out and "repro/m.py" in out

    def test_unknown_rule_id_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL999", str(tmp_path)]) == EXIT_USAGE

    def test_select_narrows_rules(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/m.py", VIOLATION + "ok = x == 0.5\n")
        monkeypatch.chdir(tmp_path)
        # Only the float rule selected: the RL003 draw is not reported.
        assert main(["--select", "RL006", str(tmp_path)]) == EXIT_FINDINGS
        assert main(["--select", "RL003,RL006", str(tmp_path)]) == EXIT_FINDINGS

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [f"RL{n:03d}" for n in (*range(1, 17), 20)]

    def test_interprocedural_selection_finds_cross_file_mix(
        self, tmp_path, monkeypatch, capsys
    ):
        # The GiB/GB probe has a real RL013 finding that only the
        # dataflow pass can see; selecting RL013 alone must run it.
        write(
            tmp_path,
            "repro/capacity.py",
            "from repro.units import GiB\n\n"
            "def reserved_bytes():\n    return 2 * GiB\n",
        )
        write(
            tmp_path,
            "repro/planner.py",
            "from repro.capacity import reserved_bytes\n"
            "from repro.units import GB\n\n"
            "def pool():\n    return reserved_bytes() + 4 * GB\n",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL013", str(tmp_path)]) == EXIT_FINDINGS
        assert "RL013" in capsys.readouterr().out

    def test_parse_error_is_usage_error(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/bad.py", "def broken(:\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_USAGE


@pytest.fixture(scope="module")
def repo_tree_result():
    """One full-tree lint run of src/repro, shared by every
    TestRepoTreeIsClean test."""
    src = REPO_ROOT / "src" / "repro"
    assert src.is_dir()
    return lint_paths([src], repo_root=REPO_ROOT)


class TestRepoTreeIsClean:
    """The tier-1 gate: linting the real src/repro must stay clean, so
    any PR introducing a violation fails the suite."""

    def test_src_repro_has_no_new_findings(self, repo_tree_result):
        assert not repo_tree_result.parse_errors
        assert not repo_tree_result.suppression_errors
        rendered = "\n".join(f.render() for f in repo_tree_result.new)
        assert not repo_tree_result.new, (
            f"new repro-lint findings:\n{rendered}"
        )

    def test_src_repro_has_no_rl016_findings(self, repo_tree_result):
        # RL016 hits are fixed at source: none may hide behind a pragma.
        result = repo_tree_result
        every = result.new + result.suppressed
        assert [f for f in every if f.rule_id == "RL016"] == []
