"""The program runs without numpy and starts without heavy imports.

numpy is not a dependency: every module imports and every attack family
runs with ``import numpy`` blocked.  CLI startup, ``--help`` and attack
listing load none of numpy, scipy or networkx; the sweep's cold start
must not load networkx either, and no path may load scipy.  These tests
run in a subprocess so the assertion sees a pristine ``sys.modules``
(the in-process suite may have imported anything).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(REPO_ROOT, "src")


def run_probe(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_help_does_not_import_numpy():
    probe = run_probe(
        "import sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "assert 'numpy' not in sys.modules, 'numpy leaked into CLI startup'\n"
    )
    assert probe.returncode == 0, probe.stderr


def test_cli_list_keeps_kernel_fast_path_unloaded():
    # `list` pulls the attack registry; neither it nor `repro.kernels`
    # may load a heavy dependency.
    probe = run_probe(
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['list']) == 0\n"
        "import repro.kernels\n"
        "loaded = [m for m in ('scipy', 'networkx', 'numpy') if m in sys.modules]\n"
        "assert not loaded, f'attack listing loaded {loaded}'\n"
    )
    assert probe.returncode == 0, probe.stderr


#: One cheap cell of every Monte-Carlo attack family.
_CHEAP_CELLS = {
    "blink-capture-analytical": {"runs": 2, "horizon": 120.0},
    "blink-capture-packet-level": {
        "horizon": 20.0, "legitimate_flows": 20, "malicious_flows": 20,
        "cells": 8, "workload": "web-search",
        "workload_params": {"size_scale": 0.05, "max_packets": 50},
    },
    "bloom-saturation": {"design_capacity": 200},
    "flowradar-overload": {"design_capacity": 200},
    "lossradar-pollution": {"cells": 256, "legit_packets": 500, "true_losses": 5,
                            "attack_packets": 100},
    "pcc-utility-equalisation": {"mis": 60, "warmup_mis": 20, "tail_mis": 20},
    "pytheas-report-poisoning": {"rounds": 10, "tail_rounds": 5},
}


def test_program_runs_without_numpy():
    probe = run_probe(
        "import sys\n"
        "sys.modules['numpy'] = None  # every `import numpy` now fails\n"
        "import importlib, pkgutil\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "from repro.attacks import attack_registry\n"
        "from repro.blink import fig2_experiment\n"
        "assert fig2_experiment(runs=2).runs\n"
        "registry = attack_registry()\n"
        f"for name, params in {_CHEAP_CELLS!r}.items():\n"
        "    registry[name].run(seed=0, **params)\n"
        "print('ok')\n"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip().endswith("ok")


def cold_setup_statements() -> str:
    """The sweep cold start the repository benchmark times.

    Read from perfbench's source rather than imported, so the probe
    runs exactly those statements and nothing perfbench loads.
    """
    path = os.path.join(REPO_ROOT, "perfbench", "workloads.py")
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "_COLD_SETUP" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no _COLD_SETUP")


def test_sweep_cold_start_loads_no_heavy_dependency():
    probe = run_probe(
        cold_setup_statements()
        + "import sys\n"
        "loaded = [m for m in ('scipy', 'networkx', 'numpy') if m in sys.modules]\n"
        "assert not loaded, f'sweep cold start loaded {loaded}'\n"
        # Graphs still build once asked for, loading networkx then.
        "from repro.netsim.routing import StaticRouter\n"
        "from repro.netsim.topology import triangle_with_hosts\n"
        "topo = triangle_with_hosts()\n"
        "assert topo.is_connected()\n"
        "assert topo.shortest_path('h0', 'h2') == ['h0', 'r0', 'r2', 'h2']\n"
        "router = StaticRouter(topo)\n"
        "router.compute()\n"
        "assert router.tables['r0'].lookup('h2').next_hop == 'r2'\n"
        "assert 'networkx' in sys.modules\n"
        "assert 'scipy' not in sys.modules\n"
    )
    assert probe.returncode == 0, probe.stderr


def test_blink_import_does_not_load_scipy():
    probe = run_probe(
        "import sys\n"
        "import repro.blink\n"
        "from repro.blink import fig2_experiment\n"
        "fig2_experiment(runs=2)\n"
        "assert 'scipy' not in sys.modules, 'scipy leaked into repro.blink'\n"
    )
    assert probe.returncode == 0, probe.stderr
