"""Suppression parsing edge cases: multi-id pragmas, decorator-line
coverage, and unknown-id rejection (exit 2)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_USAGE, main
from repro.lint.suppressions import _parse_id_list


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


class TestIdListParsing:
    def test_single_id(self):
        assert _parse_id_list("RL003") == ({"RL003"}, [])

    def test_multiple_ids_no_spaces(self):
        assert _parse_id_list("RL001,RL002,RL012") == (
            {"RL001", "RL002", "RL012"},
            [],
        )

    def test_multiple_ids_with_spaces(self):
        assert _parse_id_list("RL001 , RL002,  RL012") == (
            {"RL001", "RL002", "RL012"},
            [],
        )

    def test_justification_after_list_is_ignored(self):
        ids, bad = _parse_id_list("RL001, RL002 -- calibrated constant")
        assert ids == {"RL001", "RL002"}
        assert bad == []

    def test_all_wins_over_other_ids(self):
        assert _parse_id_list("RL001, all") == ({"ALL"}, [])

    def test_lowercase_ids_normalized(self):
        assert _parse_id_list("rl003") == ({"RL003"}, [])

    def test_empty_list_is_malformed(self):
        ids, bad = _parse_id_list("   ")
        assert ids == set()
        assert bad == ["<empty>"]

    def test_trailing_comma_is_malformed(self):
        ids, bad = _parse_id_list("RL001,")
        assert bad == ["<trailing comma>"]


class TestMultiIdSuppression:
    def test_one_comment_suppresses_two_rules(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            """\
            import random
            x = random.random() == 0.5  # repro-lint: disable=RL003, RL006
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert sorted(f.rule_id for f in result.suppressed) == ["RL003", "RL006"]

    def test_listed_ids_only(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            """\
            import random
            x = random.random() == 0.5  # repro-lint: disable=RL006, RL001
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in result.new] == ["RL003"]
        assert [f.rule_id for f in result.suppressed] == ["RL006"]


class TestDecoratorSuppression:
    def test_pragma_projects_onto_def_line(self):
        # Unit level: a pragma on the first of two stacked decorators
        # covers a finding anchored at the def line two lines below.
        import ast

        from repro.lint.findings import Finding
        from repro.lint.suppressions import SuppressionIndex

        source = textwrap.dedent(
            """\
            @alpha  # repro-lint: disable=RL003 -- fixture
            @beta
            def draw():
                return 1
            """
        )
        lines = source.splitlines()
        index = SuppressionIndex(lines, tree=ast.parse(source))
        at_def = Finding(
            rule_id="RL003",
            path="repro/m.py",
            line=3,
            col=0,
            message="fixture",
        )
        assert index.is_suppressed(at_def)
        # Without the tree, the pragma sits two lines above the def and
        # covers nothing there.
        bare = SuppressionIndex(lines)
        assert not bare.is_suppressed(at_def)

    def test_pragma_on_stacked_decorators_suppresses_body_finding(self, tmp_path):
        # The RL003 draw sits on the first body line; the pragma two
        # decorators up only reaches it via the def-line projection.
        write(
            tmp_path,
            "repro/m.py",
            """\
            import functools
            import random

            def passthrough(fn):
                return fn

            @functools.lru_cache(maxsize=None)  # repro-lint: disable=RL003 -- fixture
            @passthrough
            def draw():
                return random.random()
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not any(f.rule_id == "RL003" for f in result.new)
        assert any(f.rule_id == "RL003" for f in result.suppressed)

    def test_distant_pragma_does_not_cover(self, tmp_path):
        # A pragma above the decorators (not on one) covers nothing.
        write(
            tmp_path,
            "repro/m.py",
            """\
            import functools
            import random

            def passthrough(fn):
                return fn

            # repro-lint: disable=RL003 -- floats away

            @functools.lru_cache(maxsize=None)
            @passthrough
            def draw():
                return random.random()
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert any(f.rule_id == "RL003" for f in result.new)


class TestUnknownIdRejection:
    def test_unknown_rule_id_is_reported(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "x = 1  # repro-lint: disable=RL999\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert len(result.suppression_errors) == 1
        path, line, token = result.suppression_errors[0]
        assert path.endswith("repro/m.py")
        assert line == 1
        assert token == "RL999"

    def test_unknown_id_exits_two(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1  # repro-lint: disable=RL999\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_USAGE
        assert "RL999" in capsys.readouterr().err

    def test_known_ids_exit_clean(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/m.py", "x = 1  # repro-lint: disable=RL003\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_CLEAN

    def test_dataflow_ids_are_known_to_pragmas(self, tmp_path):
        write(tmp_path, "repro/m.py", "x = 1  # repro-lint: disable=RL012\n")
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert result.suppression_errors == []

    def test_pragma_text_inside_string_is_not_a_pragma(self, tmp_path):
        # Fix-hint templates embed pragma syntax in string literals;
        # those must be neither live suppressions nor errors.
        write(
            tmp_path,
            "repro/m.py",
            'HINT = "suppress with  # repro-lint: disable=RL999"\n',
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert result.suppression_errors == []
