"""Per-rule behaviour of repro-lint: each RL0xx fires on its target
pattern and stays quiet on the blessed idiom next to it."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, main
from repro.lint.findings import Finding
from repro.lint.rules import RULE_CLASSES, get_rule_classes, rule_catalog
from tests.lint.corpus import CORPUS


def run_lint(
    tmp_path: Path,
    source: str,
    relpath: str = "repro/mod.py",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one synthetic file; return *new* findings."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    rule_classes = get_rule_classes(select) if select else None
    result = lint_paths([tmp_path], rule_classes=rule_classes, repo_root=tmp_path)
    return result.new


def rule_ids(findings: List[Finding]) -> List[str]:
    return [f.rule_id for f in findings]


class TestRegistry:
    def test_ids_are_unique_and_sequential(self):
        ids = [cls.rule_id for cls in RULE_CLASSES]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_every_rule_has_a_summary(self):
        for rule_id, summary in rule_catalog().items():
            assert summary, f"{rule_id} has no summary"

    def test_select_unknown_id_raises(self):
        with pytest.raises(ValueError, match="RL999"):
            get_rule_classes(["RL999"])

    def test_every_rule_has_a_defect_only_it_flags(self, tmp_path, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        covered = set()
        for defect in CORPUS:
            root = tmp_path / defect.corpus_id
            for relpath, source in defect.files.items():
                target = root / relpath
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(source)
            fired = {f.rule_id for f in lint_paths([root], repo_root=root).new}
            assert fired == {defect.rule}, defect.corpus_id
            covered.add(defect.rule)
        assert sorted(listed - covered) == []


class TestRL001MagicUnitLiteral:
    def test_power_of_1024_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "capacity = 32 * 1024**3\n")
        assert "RL001" in rule_ids(findings)

    def test_power_of_two_alias_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "capacity = 4 * 2**30\n")
        assert "RL001" in rule_ids(findings)

    def test_scale_factor_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "kib = total / 1024\n")
        assert "RL001" in rule_ids(findings)

    def test_quantity_keyword_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "x = f(refresh_window_s=86400)\n")
        assert "RL001" in rule_ids(findings)

    def test_bare_count_not_flagged(self, tmp_path):
        # 1024 as a count (loop bound, table size) is not a unit slip.
        findings = run_lint(tmp_path, "max_t = 1024\n")
        assert "RL001" not in rule_ids(findings)

    def test_named_constant_clean(self, tmp_path):
        findings = run_lint(
            tmp_path, "from repro.units import GiB\ncapacity = 32 * GiB\n"
        )
        assert "RL001" not in rule_ids(findings)


class TestRL002MixedSizeUnits:
    def test_binary_plus_decimal_flagged(self, tmp_path):
        source = """\
            from repro.units import GB, GiB
            total = 2 * GiB + 1 * GB
        """
        findings = run_lint(tmp_path, source)
        assert "RL002" in rule_ids(findings)

    def test_same_base_clean(self, tmp_path):
        source = """\
            from repro.units import GiB, MiB
            total = 2 * GiB + 512 * MiB
        """
        findings = run_lint(tmp_path, source)
        assert "RL002" not in rule_ids(findings)


class TestRL003UnseededRandom:
    def test_module_level_random_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import random\nx = random.random()\n")
        assert "RL003" in rule_ids(findings)

    def test_unseeded_random_class_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import random\nrng = random.Random()\n")
        assert "RL003" in rule_ids(findings)

    def test_seeded_random_class_clean(self, tmp_path):
        findings = run_lint(tmp_path, "import random\nrng = random.Random(42)\n")
        assert "RL003" not in rule_ids(findings)

    def test_imported_random_ctor_tracked(self, tmp_path):
        findings = run_lint(
            tmp_path, "from random import Random\nrng = Random()\n"
        )
        assert "RL003" in rule_ids(findings)

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert "RL003" in rule_ids(findings)

    def test_seeded_default_rng_clean(self, tmp_path):
        findings = run_lint(
            tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n"
        )
        assert "RL003" not in rule_ids(findings)

    def test_numpy_legacy_global_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        assert "RL003" in rule_ids(findings)


class TestRL004WallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import time\nstart = time.time()\n")
        assert "RL004" in rule_ids(findings)

    def test_datetime_now_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path, "from datetime import datetime\nts = datetime.now()\n"
        )
        assert "RL004" in rule_ids(findings)

    def test_simulated_clock_clean(self, tmp_path):
        findings = run_lint(tmp_path, "now = sim.now\n")
        assert "RL004" not in rule_ids(findings)

    def test_aliased_clock_imports_flagged(self, tmp_path):
        # Each file's own import aliases are resolved before matching.
        source = """\
            import time as t
            from datetime import datetime as dt
            from time import perf_counter

            def throttle():
                return perf_counter() - t.monotonic(), dt.now()
        """
        findings = run_lint(tmp_path, source, relpath="repro/faults/injector.py")
        assert rule_ids(findings) == ["RL004", "RL004", "RL004"]

    def test_local_name_like_a_clock_clean(self, tmp_path):
        # Only imported names resolve: a local `perf_counter` is not time's.
        source = """\
            def perf_counter():
                return 0.0

            x = perf_counter()
        """
        assert "RL004" not in rule_ids(run_lint(tmp_path, source))


class TestRL005SetIteration:
    SIM_PATH = "repro/sim/custom.py"

    def test_set_literal_iteration_flagged_in_sim(self, tmp_path):
        source = """\
            for item in {"a", "b"}:
                handle(item)
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL005" in rule_ids(findings)

    def test_list_of_set_flagged_in_sim(self, tmp_path):
        findings = run_lint(
            tmp_path, "order = list(set(names))\n", relpath=self.SIM_PATH
        )
        assert "RL005" in rule_ids(findings)

    def test_sorted_set_clean(self, tmp_path):
        source = """\
            for item in sorted({"a", "b"}):
                handle(item)
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL005" not in rule_ids(findings)

    def test_not_flagged_outside_critical_modules(self, tmp_path):
        # repro/docs_helper.py neither imports sim nor is imported by it.
        source = """\
            for item in {"a", "b"}:
                handle(item)
        """
        findings = run_lint(tmp_path, source, relpath="repro/docs_helper.py")
        assert "RL005" not in rule_ids(findings)

    def test_importing_sim_makes_module_critical(self, tmp_path):
        source = """\
            from repro.sim import kernel
            for item in {"a", "b"}:
                handle(item)
        """
        (tmp_path / "repro/sim").mkdir(parents=True)
        (tmp_path / "repro/sim/kernel.py").write_text("x = 1\n")
        findings = run_lint(tmp_path, source, relpath="repro/driver.py")
        assert "RL005" in rule_ids(findings)


class TestRL006FloatEquality:
    def test_float_literal_equality_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "ok = x == 0.5\n")
        assert "RL006" in rule_ids(findings)

    def test_not_equal_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "ok = ratio != 1.0\n")
        assert "RL006" in rule_ids(findings)

    def test_ordered_guard_clean(self, tmp_path):
        findings = run_lint(tmp_path, "ok = x <= 0.0\n")
        assert "RL006" not in rule_ids(findings)

    def test_assert_whitelisted(self, tmp_path):
        findings = run_lint(tmp_path, "assert x == 0.5\n")
        assert "RL006" not in rule_ids(findings)

    def test_int_literal_clean(self, tmp_path):
        findings = run_lint(tmp_path, "ok = count == 0\n")
        assert "RL006" not in rule_ids(findings)


class TestRL007SimProcessHygiene:
    def test_process_yielding_literal_flagged(self, tmp_path):
        source = """\
            from repro.sim.process import Timeout

            def proc():
                yield Timeout(1.0)
                yield 5
        """
        findings = run_lint(tmp_path, source)
        assert "RL007" in rule_ids(findings)

    def test_bare_yield_in_process_flagged(self, tmp_path):
        source = """\
            from repro.sim.process import Timeout

            def proc():
                yield Timeout(1.0)
                yield
        """
        findings = run_lint(tmp_path, source)
        assert "RL007" in rule_ids(findings)

    def test_bare_yield_in_wakeat_process_flagged(self, tmp_path):
        # WakeAt alone marks a generator as a process: the engine's
        # decode leap yields nothing else.
        source = """\
            from repro.sim.process import WakeAt

            def proc(t):
                yield WakeAt(t)
                yield
        """
        findings = run_lint(tmp_path, source)
        assert "RL007" in rule_ids(findings)

    def test_data_generator_exempt(self, tmp_path):
        # A plain iterator yielding values is not a sim process.
        source = """\
            def tokens():
                yield 5
                yield 6
        """
        findings = run_lint(tmp_path, source)
        assert "RL007" not in rule_ids(findings)

    def test_blocking_call_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import time\ntime.sleep(1)\n")
        assert "RL007" in rule_ids(findings)

    def test_aliased_blocking_call_flagged(self, tmp_path):
        # The import aliases of the file itself are resolved: a helper
        # that calls `sleep(...)` after `from time import sleep` blocks
        # just the same.
        source = """\
            from time import sleep as pause
            from subprocess import run

            def throttle(delay_s):
                pause(delay_s)
                run(["true"])
        """
        findings = run_lint(tmp_path, source, relpath="repro/faults/injector.py")
        assert rule_ids(findings) == ["RL007", "RL007"]


class TestRL008DeviceProvenance:
    DEV_PATH = "repro/devices/custom.py"

    def test_profile_without_source_flagged(self, tmp_path):
        source = """\
            profile = TechnologyProfile(
                name="x",
                retention_s=1.0,
            )
        """
        findings = run_lint(tmp_path, source, relpath=self.DEV_PATH)
        assert "RL008" in rule_ids(findings)

    def test_profile_with_source_clean(self, tmp_path):
        source = """\
            profile = TechnologyProfile(
                name="x",
                retention_s=1.0,
                source="vendor datasheet",
            )
        """
        findings = run_lint(tmp_path, source, relpath=self.DEV_PATH)
        assert "RL008" not in rule_ids(findings)

    def test_numeric_kwarg_without_comment_flagged(self, tmp_path):
        source = """\
            dev = Device(
                max_pulses=16,
            )
        """
        findings = run_lint(tmp_path, source, relpath=self.DEV_PATH)
        assert "RL008" in rule_ids(findings)

    def test_numeric_kwarg_with_citation_comment_clean(self, tmp_path):
        source = """\
            dev = Device(
                max_pulses=16,  # verify-loop bound [24]
            )
        """
        findings = run_lint(tmp_path, source, relpath=self.DEV_PATH)
        assert "RL008" not in rule_ids(findings)

    def test_zero_default_exempt(self, tmp_path):
        source = """\
            class Counters:
                reads: int = 0
        """
        findings = run_lint(tmp_path, source, relpath=self.DEV_PATH)
        assert "RL008" not in rule_ids(findings)

    def test_outside_devices_not_checked(self, tmp_path):
        findings = run_lint(
            tmp_path, "dev = Device(max_pulses=16)\n", relpath="repro/core/x.py"
        )
        assert "RL008" not in rule_ids(findings)


class TestRL009AdHocParallelism:
    def test_multiprocessing_import_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import multiprocessing\n")
        assert "RL009" in rule_ids(findings)

    def test_multiprocessing_submodule_import_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import multiprocessing.pool\n")
        assert "RL009" in rule_ids(findings)

    def test_from_multiprocessing_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "from multiprocessing import Pool\n")
        assert "RL009" in rule_ids(findings)

    def test_executor_import_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n",
        )
        assert "RL009" in rule_ids(findings)

    def test_executor_call_flagged(self, tmp_path):
        source = """\
            import concurrent.futures

            pool = concurrent.futures.ProcessPoolExecutor(4)
        """
        findings = run_lint(tmp_path, source)
        assert "RL009" in rule_ids(findings)

    def test_thread_pool_clean(self, tmp_path):
        # Threads do not fork RNG state; only process fan-out is flagged.
        source = """\
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(2)
        """
        findings = run_lint(tmp_path, source)
        assert "RL009" not in rule_ids(findings)

    def test_repro_parallel_exempt(self, tmp_path):
        source = """\
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
        """
        findings = run_lint(
            tmp_path, source, relpath="repro/parallel/sweep.py"
        )
        assert "RL009" not in rule_ids(findings)

    def test_repro_parallel_init_exempt(self, tmp_path):
        findings = run_lint(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n",
            relpath="repro/parallel/__init__.py",
        )
        assert "RL009" not in rule_ids(findings)


class TestRL010SwallowedExceptions:
    SIM_PATH = "repro/sim/custom.py"

    def test_bare_except_flagged_in_sim(self, tmp_path):
        source = """\
            try:
                step()
            except:
                recover()
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" in rule_ids(findings)

    def test_swallowed_broad_handler_flagged_in_sim(self, tmp_path):
        source = """\
            try:
                step()
            except Exception:
                pass
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" in rule_ids(findings)

    def test_swallowed_base_exception_in_tuple_flagged(self, tmp_path):
        source = """\
            try:
                step()
            except (ValueError, BaseException):
                ...
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" in rule_ids(findings)

    def test_handled_broad_exception_clean(self, tmp_path):
        # Wrap-and-raise (the SimProcessError pattern) is the blessed idiom.
        source = """\
            try:
                step()
            except Exception as exc:
                raise WrappedError("context") from exc
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" not in rule_ids(findings)

    def test_recorded_broad_exception_clean(self, tmp_path):
        source = """\
            try:
                step()
            except Exception as exc:
                failures.append(exc)
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" not in rule_ids(findings)

    def test_narrow_swallow_clean(self, tmp_path):
        # Naming the type documents which failure is safe to ignore.
        source = """\
            try:
                stream.close()
            except OSError:
                pass
        """
        findings = run_lint(tmp_path, source, relpath=self.SIM_PATH)
        assert "RL010" not in rule_ids(findings)

    def test_not_flagged_outside_critical_modules(self, tmp_path):
        source = """\
            try:
                step()
            except:
                pass
        """
        findings = run_lint(
            tmp_path, source, relpath="repro/docs_helper.py"
        )
        assert "RL010" not in rule_ids(findings)

    def test_importing_sim_makes_module_critical(self, tmp_path):
        source = """\
            from repro.sim import kernel

            try:
                step()
            except Exception:
                pass
        """
        (tmp_path / "repro/sim").mkdir(parents=True)
        (tmp_path / "repro/sim/kernel.py").write_text("x = 1\n")
        findings = run_lint(tmp_path, source, relpath="repro/driver.py")
        assert "RL010" in rule_ids(findings)


class TestRL011ObsDeterminism:
    def test_wall_clock_in_label_flagged(self, tmp_path):
        # A clock read is RL004's everywhere, obs positions included;
        # RL011 does not flag it a second time.
        source = """\
            import time

            from repro.obs import MetricsRegistry

            reg = MetricsRegistry()
            reg.counter("runs_total", started=time.time()).add()
        """
        findings = run_lint(tmp_path, source)
        assert rule_ids(findings) == ["RL004"]

    def test_hash_in_value_flagged(self, tmp_path):
        # String hashes differ between processes (PYTHONHASHSEED).
        source = """\
            from repro.obs import NULL_REGISTRY

            def record(model, tokens):
                NULL_REGISTRY.counter("tokens").add(tokens + hash(model.name) % 2)
        """
        assert rule_ids(run_lint(tmp_path, source)) == ["RL011"]

    def test_id_in_label_flagged(self, tmp_path):
        source = """\
            from repro.obs import MetricsRegistry

            def record(reg, engine):
                reg.gauge("engine.depth", engine=id(engine)).set(1.0)
        """
        findings = run_lint(tmp_path, source)
        assert "RL011" in rule_ids(findings)

    def test_uuid_in_fstring_name_flagged(self, tmp_path):
        source = """\
            import uuid

            from repro.obs import Tracer

            def trace(tracer):
                tracer.begin(f"run:{uuid.uuid4()}")
        """
        findings = run_lint(tmp_path, source)
        assert "RL011" in rule_ids(findings)

    def test_getpid_in_value_flagged(self, tmp_path):
        source = """\
            import os

            from repro.obs import MetricsRegistry

            def record(reg):
                reg.gauge("worker").set(os.getpid())
        """
        findings = run_lint(tmp_path, source)
        assert "RL011" in rule_ids(findings)

    def test_config_derived_labels_clean(self, tmp_path):
        source = """\
            from repro.obs import MetricsRegistry

            def record(reg, config, sim):
                reg.counter("kv.bytes_total", pool=config["pool"]).add(4096)
                reg.gauge("sim.clock_s").set(sim.now)
        """
        findings = run_lint(tmp_path, source)
        assert "RL011" not in rule_ids(findings)

    def test_identity_builtins_clean_without_obs_import(self, tmp_path):
        # `.add(id(...))` on a set is legal Python; the rule only
        # applies where repro.obs is in scope.
        source = """\
            def track(seen, obj):
                seen.add(id(obj))
        """
        findings = run_lint(tmp_path, source)
        assert "RL011" not in rule_ids(findings)


class TestRL020UnboundedResilience:
    SERVE_PATH = "repro/inference/policy.py"
    FAULT_PATH = "repro/faults/driver.py"

    def test_unbounded_retry_loop_flagged(self, tmp_path):
        source = """\
            def deliver(send, request):
                attempts = 0
                while True:
                    if send(request):
                        return
                    attempts += 1
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" in rule_ids(findings)

    def test_unbounded_retry_loop_flagged_in_faults(self, tmp_path):
        source = """\
            def inject(apply, event):
                retries = 0
                while True:
                    if apply(event):
                        return
                    retries += 1
        """
        findings = run_lint(tmp_path, source, relpath=self.FAULT_PATH)
        assert "RL020" in rule_ids(findings)

    def test_budgeted_retry_loop_clean(self, tmp_path):
        source = """\
            def deliver(send, request, max_retries):
                attempts = 0
                while True:
                    if send(request):
                        return
                    if attempts >= max_retries:
                        return
                    attempts += 1
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_raising_retry_loop_clean(self, tmp_path):
        source = """\
            def deliver(send, request):
                attempts = 0
                while True:
                    if send(request):
                        return
                    attempts += 1
                    raise RuntimeError("gave up")
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_for_range_retry_clean(self, tmp_path):
        source = """\
            def deliver(send, request, budget):
                for attempt in range(budget):
                    if send(request):
                        return
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_non_retry_event_loop_clean(self, tmp_path):
        source = """\
            def pump(queue, handle):
                while True:
                    item = queue.pop()
                    if item is None:
                        return
                    handle(item)
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_wait_without_timeout_flagged(self, tmp_path):
        source = """\
            def drain(event):
                event.wait()
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" in rule_ids(findings)

    def test_acquire_without_timeout_flagged(self, tmp_path):
        source = """\
            def hold(lock):
                lock.acquire()
        """
        findings = run_lint(tmp_path, source, relpath=self.FAULT_PATH)
        assert "RL020" in rule_ids(findings)

    def test_wait_with_timeout_kwarg_clean(self, tmp_path):
        source = """\
            def drain(event, condition, pred):
                event.wait(timeout=5.0)
                condition.wait_for(pred, timeout=1.0)
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_wait_with_positional_timeout_clean(self, tmp_path):
        source = """\
            def drain(event, condition, pred):
                event.wait(5.0)
                condition.wait_for(pred, 1.0)
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_str_join_not_confused(self, tmp_path):
        # join/get are deliberately out of scope: too many benign
        # namesakes (str.join, dict.get).
        source = """\
            def render(parts):
                return ", ".join(parts)
        """
        findings = run_lint(tmp_path, source, relpath=self.SERVE_PATH)
        assert "RL020" not in rule_ids(findings)

    def test_outside_resilience_packages_not_checked(self, tmp_path):
        source = """\
            def deliver(send, request):
                attempts = 0
                while True:
                    if send(request):
                        return
                    attempts += 1
        """
        findings = run_lint(tmp_path, source, relpath="repro/core/x.py")
        assert "RL020" not in rule_ids(findings)
