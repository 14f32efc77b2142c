"""Seeded defects that exactly one repro-lint rule flags.

Each row is a small copy of a defect from the seeded-defect corpus
(CHANGES.md holds the full table: every row, the rules that fired on
the real tree, and which of tier-1, the goldens and
``tools/run_experiments.py --check`` noticed).  A row keeps the shape of
the real defect, trimmed to the lines the rule needs.  Every rule the
linter lists needs at least one row that it alone flags
(``tests/lint/test_rules.py::TestRegistry``): a rule with no defect of
its own would only repeat another check.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Defect(NamedTuple):
    #: The corpus row this copies, e.g. ``"RL012-a"``.
    corpus_id: str
    #: The one rule that flags it.
    rule: str
    #: Files to lint, by path under a ``repro`` package root.
    files: Dict[str, str]


#: A sim package, so the other files fall in the determinism-critical set.
_SIM = {"repro/sim/__init__.py": "class Timeout:\n    pass\n"}

CORPUS: List[Defect] = [
    Defect("RL001-a", "RL001", {
        "repro/energy/tco.py": "LIFETIME_S = 5 * 365 * 86400\n",
    }),
    Defect("RL002-a", "RL002", {
        "repro/endurance/requirements.py": (
            "from repro.units import GB, GiB\n\n"
            "MACHINE_HBM_BYTES = 640 * GiB - 16 * GB\n"
        ),
    }),
    Defect("RL003-a", "RL003", {
        "repro/workload/requests.py": (
            "import numpy as np\n\n\n"
            "class RequestGenerator:\n"
            "    def __init__(self, seed: int = 0) -> None:\n"
            "        self.rng = np.random.default_rng()\n"
        ),
    }),
    Defect("RL004-c", "RL004", {
        "repro/faults/experiment.py": (
            "import time\n\n\n"
            "def controller_arm(play_rounds):\n"
            "    started = time.perf_counter()\n"
            "    totals = play_rounds()\n"
            '    return {"wall_s": time.perf_counter() - started, **totals}\n'
        ),
    }),
    Defect("RL005-b", "RL005", {
        **_SIM,
        "repro/obs/snapshot.py": (
            "import repro.sim\n\n\n"
            "def diff_snapshots(sa, sb):\n"
            "    lines = []\n"
            "    for name in set(sa) | set(sb):\n"
            "        lines.append(f\"{name}: {sa.get(name)} -> {sb.get(name)}\")\n"
            "    return lines\n"
        ),
    }),
    Defect("RL006-a", "RL006", {
        "repro/ecc/bch.py": (
            "def block_error_probability(rber, n):\n"
            "    if rber == 0.0:\n"
            "        return 0.0\n"
            "    return 1.0 - (1.0 - rber) ** n\n"
        ),
    }),
    Defect("RL007-c", "RL007", {
        "repro/inference/engine.py": (
            "import time\n\n"
            "from repro.sim import Timeout\n\n\n"
            "def run_prefill(engine, traffic, timing):\n"
            "    engine.account_step(traffic, timing)\n"
            "    time.sleep(0)\n"
            "    yield Timeout(timing.duration_s)\n"
        ),
    }),
    Defect("RL008-a", "RL008", {
        "repro/devices/catalog.py": (
            "from repro.devices.base import TechnologyProfile\n\n"
            'DDR5 = TechnologyProfile(name="ddr5", read_bandwidth=51.2e9)\n'
        ),
    }),
    Defect("RL009-a", "RL009", {
        "repro/fleet/experiment.py": (
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def run_cells(cells, evaluate):\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        return list(pool.map(evaluate, cells))\n"
        ),
    }),
    Defect("RL010-c", "RL010", {
        **_SIM,
        "repro/inference/engine.py": (
            "from repro.sim import Timeout\n\n\n"
            "def run_prefill(engine, traffic, timing):\n"
            "    try:\n"
            "        engine.account_step(traffic, timing)\n"
            "    except Exception:\n"
            "        pass\n"
            "    yield Timeout(timing.duration_s)\n"
        ),
    }),
    Defect("RL011-a", "RL011", {
        "repro/inference/engine.py": (
            "from repro.obs import NULL_REGISTRY\n\n\n"
            "class InferenceEngine:\n"
            "    def __init__(self, model):\n"
            "        self.model = model\n"
            '        self._obs_tokens = NULL_REGISTRY.counter("engine.tokens")\n\n'
            "    def account(self, tokens):\n"
            "        self._obs_tokens.add(tokens + hash(self.model.name) % 2)\n"
        ),
    }),
    Defect("RL012-a", "RL012", {
        "repro/endurance/requirements.py": (
            "from repro.units import YEAR\n\n\n"
            "def figure1_data(lifetime_s: float = 5 * YEAR):\n"
            "    return lifetime_s / YEAR\n"
        ),
        "repro/cli.py": (
            "from repro.endurance.requirements import figure1_data\n"
            "from repro.units import GiB\n\n\n"
            "def cmd_fig1(args):\n"
            "    return figure1_data(lifetime_s=args.years * GiB)\n"
        ),
    }),
    Defect("RL013-a", "RL013", {
        "repro/tiering/tiers.py": (
            "from repro.units import GB, GiB\n\n\n"
            "def _stack_bytes() -> int:\n"
            "    return 24 * GiB\n\n\n"
            "def hbm_stacks(capacity_bytes: int) -> int:\n"
            "    return max(1, round(capacity_bytes / (_stack_bytes() + 1 * GB)))\n"
        ),
    }),
    Defect("RL014-d", "RL014", {
        "repro/faults/schedule.py": (
            "import numpy as np\n\n\n"
            "def generate_correlated_schedule(topology, seed):\n"
            "    rng = np.random.default_rng(np.random.SeedSequence(99))\n"
            "    return rng.exponential(1.0, size=len(topology))\n"
        ),
    }),
    Defect("RL014-e", "RL014", {
        "repro/workload/requests.py": (
            "import numpy as np\n\n\n"
            "class RequestGenerator:\n"
            "    def __init__(self, seed: int = 0) -> None:\n"
            "        self.rng = self.make_rng()\n\n"
            "    @staticmethod\n"
            "    def make_rng(seed=None):\n"
            "        return np.random.default_rng(seed)\n"
        ),
    }),
    Defect("RL016-c", "RL016", {
        **_SIM,
        "repro/fleet/fleet.py": (
            "import repro.sim\n\n\n"
            "def fleet_access_energy(tenant_tables):\n"
            "    fleet_access_energy_j = 0.0\n"
            "    for table in tenant_tables.values():\n"
            '        fleet_access_energy_j += table["access_energy_j"]\n'
            "    return fleet_access_energy_j\n"
        ),
    }),
    Defect("RL020-a", "RL020", {
        "repro/inference/kvcache.py": (
            "class OutOfPages(Exception):\n"
            "    pass\n\n\n"
            "def register(table, prompt_tokens):\n"
            "    attempts = 0\n"
            "    while True:\n"
            "        try:\n"
            "            return table.append_tokens(prompt_tokens)\n"
            "        except OutOfPages:\n"
            "            attempts += 1\n"
        ),
    }),
]
