"""Interprocedural dataflow rules RL012-RL016: true positives, true
negatives, and the regression cases the per-file rules cannot see."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.dataflow import DATAFLOW_RULE_IDS
from repro.lint.dataflow.extract import classify_iter, extract_summary
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.model import ITER_DICT, ITER_SET, ITER_SORTED
from repro.lint.dataflow.rules import check_program, float_accum_shared


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def refuse_summaries(monkeypatch) -> None:
    """Fail the test if the dataflow pass extracts any summary."""

    def refuse(*args, **kwargs):
        raise AssertionError("summary built for a per-file-only run")

    monkeypatch.setattr("repro.lint.dataflow.run.extract_summary", refuse)


def df_findings(tmp_path, rule_id=None):
    """New findings from a full engine run, filtered to dataflow ids."""
    result = lint_paths([tmp_path], repo_root=tmp_path)
    wanted = {rule_id} if rule_id else set(DATAFLOW_RULE_IDS)
    return [f for f in result.new if f.rule_id in wanted]


HELPERS = """\
    from repro.units import GiB

    def reserved_bytes():
        return 2 * GiB

    def scale_capacity(capacity_bytes):
        return capacity_bytes / GiB
"""


class TestRL012DimensionConflicts:
    def test_seconds_into_bytes_parameter(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity
            from repro.units import HOUR

            def retention_s():
                return 5 * HOUR

            def run():
                return scale_capacity(retention_s())
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "capacity_bytes" in findings[0].message
        assert "seconds" in findings[0].message

    def test_return_assigned_to_conflicting_name(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes

            def run():
                window_s = reserved_bytes()
                return window_s
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "window_s" in findings[0].message

    def test_matching_dimensions_are_clean(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity

            def run(extra_bytes):
                total_bytes = reserved_bytes() + extra_bytes
                return scale_capacity(total_bytes)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_unknown_dimension_never_flags(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity

            def run(blob):
                return scale_capacity(blob)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_annotation_alias_drives_inference(self, tmp_path):
        write(
            tmp_path,
            "repro/api.py",
            """\
            from repro.units import Seconds

            def decay_after(dwell: Seconds):
                return dwell * 2
            """,
        )
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.api import decay_after

            def run(capacity_bytes):
                return decay_after(capacity_bytes)
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "dwell" in findings[0].message


class TestRL013BaseConflicts:
    def test_decimal_arg_into_binary_callee(self, tmp_path):
        # scale_capacity divides by GiB (binary); 4 * GB is decimal.
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity
            from repro.units import GB

            def run():
                return scale_capacity(4 * GB)
            """,
        )
        findings = df_findings(tmp_path, "RL013")
        assert len(findings) == 1
        assert "decimal" in findings[0].message
        assert "binary" in findings[0].message

    def test_binary_return_mixed_with_decimal_constant(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB
            """,
        )
        findings = df_findings(tmp_path, "RL013")
        assert len(findings) == 1
        assert "binary" in findings[0].message

    def test_same_base_across_call_is_clean(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity
            from repro.units import GiB

            def total():
                return reserved_bytes() + 4 * GiB

            def frac():
                return scale_capacity(32 * GiB)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_regression_per_file_rules_miss_cross_function_mix(self, tmp_path):
        """The deliberate GB-vs-GiB conflict split across two functions:
        RL002 (per-file mixing) cannot see it, RL013 must."""
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB
            """,
        )
        per_file_only = lint_paths(
            [tmp_path], repo_root=tmp_path, dataflow_rule_ids=set()
        )
        assert per_file_only.new == []
        with_dataflow = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in with_dataflow.new] == ["RL013"]


RNG_HELPER = """\
    import numpy as np

    def make_rng(seed=None):
        return np.random.default_rng(seed)
"""


class TestRL014SeedProvenance:
    def test_unseeded_through_helper(self, tmp_path):
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            from repro.rngutil import make_rng

            def setup():
                rng = make_rng()
                return rng
            """,
        )
        findings = df_findings(tmp_path, "RL014")
        assert len(findings) == 1
        assert "seed" in findings[0].message
        assert findings[0].path.endswith("repro/sim/engine.py")

    def test_literal_seed_in_sim_code(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            import numpy as np

            def setup():
                rng = np.random.default_rng(42)
                return rng
            """,
        )
        findings = df_findings(tmp_path, "RL014")
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_derived_seed_is_clean(self, tmp_path):
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            import numpy as np
            from repro.rngutil import make_rng

            def setup(seed):
                direct = np.random.default_rng(seed)
                via_helper = make_rng(seed=seed)
                return direct, via_helper
            """,
        )
        assert df_findings(tmp_path) == []

    def test_outside_sim_scope_is_clean(self, tmp_path):
        # Same unseeded helper call, but nothing under sim/workload/
        # faults reaches it: analysis code may use ad-hoc streams.
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/plotting.py",
            """\
            from repro.rngutil import make_rng

            def jitter():
                return make_rng()
            """,
        )
        assert df_findings(tmp_path) == []

    def test_regression_per_file_rules_miss_helper_default(self, tmp_path):
        """``make_rng()`` passes RL003 (an arg exists at the direct
        construction site) — only provenance tracking catches the
        seed=None default at the omitting call site."""
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            from repro.rngutil import make_rng

            def setup():
                return make_rng()
            """,
        )
        per_file_only = lint_paths(
            [tmp_path], repo_root=tmp_path, dataflow_rule_ids=set()
        )
        assert per_file_only.new == []
        with_dataflow = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in with_dataflow.new] == ["RL014"]


class TestRL015ProcessPurity:
    def test_wall_clock_through_helper(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def slow_helper():
                return time.time()
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import slow_helper
            from repro.sim.events import Timeout

            def proc(env):
                slow_helper()
                yield Timeout(1.0)
            """,
        )
        findings = df_findings(tmp_path, "RL015")
        assert len(findings) == 1
        assert "slow_helper" in findings[0].message
        assert "time.time" in findings[0].message

    def test_wakeat_process_through_helper(self, tmp_path):
        # A process that only yields WakeAt is still a process.
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def slow_helper():
                return time.time()
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import slow_helper
            from repro.sim.process import WakeAt

            def proc(env, t):
                slow_helper()
                yield WakeAt(t)
            """,
        )
        findings = df_findings(tmp_path, "RL015")
        assert len(findings) == 1
        assert "slow_helper" in findings[0].message

    def test_two_hop_chain_is_reported(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def inner():
                return time.time()

            def outer():
                return inner()
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import outer
            from repro.sim.events import Timeout

            def proc(env):
                outer()
                yield Timeout(1.0)
            """,
        )
        findings = df_findings(tmp_path, "RL015")
        assert len(findings) == 1
        assert "outer" in findings[0].message and "inner" in findings[0].message

    def test_pure_helper_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            def pure_helper(x_s):
                return x_s * 2
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import pure_helper
            from repro.sim.events import Timeout

            def proc(env):
                pure_helper(1.0)
                yield Timeout(1.0)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_non_process_caller_is_clean(self, tmp_path):
        # Only generators yielding sim commands are processes; plain
        # functions may read the clock (e.g. progress reporting).
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def slow_helper():
                return time.time()
            """,
        )
        write(
            tmp_path,
            "repro/sim/report.py",
            """\
            from repro.util import slow_helper

            def progress():
                return slow_helper()
            """,
        )
        assert df_findings(tmp_path, "RL015") == []


# ---------------------------------------------------------------------------
# RL016 — order-sensitive float reductions
# ---------------------------------------------------------------------------
class TestClassifyIter:
    def cases(self, expr):
        return classify_iter(ast.parse(expr, mode="eval").body)[0]

    def test_items_on_name(self):
        assert self.cases("d.items()") == ITER_DICT

    def test_items_on_call_receiver(self):
        # The receiver is itself a call — the merge_snapshots shape.
        assert self.cases("snap.get('c', {}).items()") == ITER_DICT

    def test_sorted_wrapping_items(self):
        assert self.cases("sorted(d.items())") == ITER_SORTED

    def test_set_literal(self):
        assert self.cases("{a, b}") == ITER_SET


RL016_TP = """\
    def merge(snaps):
        totals = {}
        for snap in snaps:
            for key, value in snap.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals
"""


class TestRL016:
    def test_dict_order_float_reduction_fires(self, tmp_path):
        write(tmp_path, "repro/sim/agg.py", RL016_TP)
        findings = df_findings(tmp_path, "RL016")
        assert len(findings) == 1
        assert "dict-order" in findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            RL016_TP.replace("snap.items()", "sorted(snap.items())"),
        )
        assert df_findings(tmp_path, "RL016") == []

    def test_integer_tally_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            """\
            def tally(snaps):
                counts = {}
                for snap in snaps:
                    for key in snap.items():
                        counts[key] = counts.get(key, 0) + 1
                return counts
            """,
        )
        assert df_findings(tmp_path, "RL016") == []

    def test_interprocedural_accumulation_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/sched.py",
            """\
            class Manager:
                def __init__(self):
                    self.energy_j = 0.0
                    self.residents = {}

                def _charge(self, resident):
                    self.energy_j += resident.cost_j

                def tick(self):
                    for resident in self.residents.values():
                        self._charge(resident)
            """,
        )
        findings = df_findings(tmp_path, "RL016")
        assert len(findings) == 1
        assert "self._charge" in findings[0].message
        assert "energy_j" in findings[0].message

    def test_attribute_chain_accumulation_fires(self, tmp_path):
        # The accumulation sits behind ``self.stats.charge()``: only the
        # ``self.stats = Stats()`` bind tells the linker which class's
        # method that is.
        write(
            tmp_path,
            "repro/sim/stats_owner.py",
            """\
            class Stats:
                def __init__(self):
                    self.energy_j = 0.0

                def charge(self, cost_j):
                    self.energy_j += cost_j


            class Manager:
                def __init__(self):
                    self.stats = Stats()
                    self.residents = {}

                def _settle(self, resident):
                    self.stats.charge(resident.cost_j)

                def tick(self):
                    for resident in self.residents.values():
                        self._settle(resident)
            """,
        )
        findings = df_findings(tmp_path, "RL016")
        assert len(findings) == 1
        assert "self._settle" in findings[0].message
        assert "Stats.charge" in findings[0].message

    def test_float_accum_shared_propagates(self):
        source = textwrap.dedent(
            """\
            class Stats:
                def charge(self, j):
                    self.energy_j += j

                def settle(self, j):
                    self.charge(j)
            """
        )
        shared = float_accum_shared(
            Program([extract_summary("repro/m.py", "repro.m", source)])
        )
        assert "repro.m.Stats.charge" in shared
        assert shared["repro.m.Stats.settle"][0] == "repro.m.Stats.charge"

    def test_scoped_to_determinism_critical_modules(self, tmp_path):
        # Same pattern outside the sim import closure: the engine stays
        # silent until a sim module imports it into the closure.
        write(tmp_path, "repro/reportutil.py", RL016_TP)
        assert df_findings(tmp_path, "RL016") == []
        write(tmp_path, "repro/sim/kernel.py", "from repro import reportutil\n")
        findings = df_findings(tmp_path, "RL016")
        assert [f.path for f in findings] == ["repro/reportutil.py"]

    def test_suppression_pragma_applies(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            RL016_TP.replace(
                "totals[key] = totals.get(key, 0.0) + value",
                "totals[key] = totals.get(key, 0.0) + value"
                "  # repro-lint: disable=RL016",
            ),
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f for f in result.new if f.rule_id == "RL016"] == []
        assert [f for f in result.suppressed if f.rule_id == "RL016"]

    def test_select_rl016_only(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/sim/agg.py", RL016_TP)
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL016", str(tmp_path)]) == EXIT_FINDINGS

    def test_list_rules_includes_rl016(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert "RL016" in listed
        # The retired effects ids are never listed (nor reused).
        assert listed.isdisjoint({"RL017", "RL018", "RL019"})

    def test_retired_effects_rule_id_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for rule_id in ("RL099", "RL017", "RL019"):
            assert main(["--select", rule_id, str(tmp_path)]) == EXIT_USAGE
            assert "error:" in capsys.readouterr().err


class TestEngineIntegration:
    def test_dataflow_findings_respect_suppressions(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes

            def run():
                window_s = reserved_bytes()  # repro-lint: disable=RL012 -- fixture
                return window_s
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert [f.rule_id for f in result.suppressed] == ["RL012"]

    def test_rule_selection_narrows_dataflow(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB

            def run():
                window_s = reserved_bytes()
                return window_s
            """,
        )
        result = lint_paths(
            [tmp_path], repo_root=tmp_path, dataflow_rule_ids={"RL013"}
        )
        assert [f.rule_id for f in result.new] == ["RL013"]

    def test_dataflow_only_selection_disables_per_file_rules(self, tmp_path):
        # split_selection(["RL013"]) yields an EMPTY per-file class list;
        # the engine must honour it rather than falling back to the full
        # registry (empty list != None).
        from repro.lint.rules import split_selection

        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            import random
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                x = random.random()
                return reserved_bytes() + 4 * GB + x
            """,
        )
        classes, dataflow_ids = split_selection(["RL013"])
        assert classes == []
        result = lint_paths(
            [tmp_path],
            rule_classes=classes,
            repo_root=tmp_path,
            dataflow_rule_ids=dataflow_ids,
        )
        # RL003 would fire on random.random() if per-file rules ran.
        assert [f.rule_id for f in result.new] == ["RL013"]

    def test_dataflow_off_skips_pass(self, tmp_path, monkeypatch):
        # A selection with no dataflow id builds no summary at all.
        refuse_summaries(monkeypatch)
        write(tmp_path, "repro/helpers.py", HELPERS)
        result = lint_paths([tmp_path], repo_root=tmp_path, dataflow_rule_ids=set())
        assert result.files_checked == 1 and not result.new

    def test_per_file_only_selection_builds_no_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        # The fast path for editor hooks: ignoring every dataflow id runs
        # the per-file rules alone and never extracts a summary.
        refuse_summaries(monkeypatch)
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(tmp_path, "repro/m.py", "import random\nx = random.random()\n")
        monkeypatch.chdir(tmp_path)
        argv = ["--ignore", ",".join(DATAFLOW_RULE_IDS), str(tmp_path)]
        assert main(argv) == EXIT_FINDINGS
        assert "RL003" in capsys.readouterr().out
        assert main(["--select", "RL003", str(tmp_path)]) == EXIT_FINDINGS

    def test_reports_are_deterministic(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity
            from repro.units import GB, HOUR

            def retention_s():
                return 5 * HOUR

            def run():
                total = reserved_bytes() + 4 * GB
                frac = scale_capacity(retention_s())
                window_s = reserved_bytes()
                return total, frac, window_s
            """,
        )
        # A dataflow-only selection: no per-file rule runs.
        first = lint_paths([tmp_path], rule_classes=[], repo_root=tmp_path).new
        second = lint_paths([tmp_path], rule_classes=[], repo_root=tmp_path).new
        assert [f.render() for f in first] == [f.render() for f in second]
        assert len(first) >= 3


class TestSummaryModel:
    def test_check_program_dedupes(self):
        source = textwrap.dedent(
            """\
            from repro.units import GiB

            def scale(capacity_bytes):
                return capacity_bytes / GiB
            """
        )
        caller = textwrap.dedent(
            """\
            from repro.m import scale
            from repro.units import HOUR

            def run(window_s):
                return scale(window_s)
            """
        )
        summaries = [
            extract_summary("repro/m.py", "repro.m", source),
            extract_summary("repro/d.py", "repro.d", caller),
        ]
        program = Program(summaries)
        findings = check_program(program)
        keys = [(f.rule_id, f.path, f.line, f.col, f.message) for f in findings]
        assert len(keys) == len(set(keys))
        assert [f.rule_id for f in findings] == ["RL012"]
