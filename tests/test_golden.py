"""Golden output pins: the sha256 of every file the CLI writes for the shipped scenarios.

A refactor must leave these bytes alone.  A change that alters them on purpose
re-pins the digests here and says which outputs changed and why.
"""

import hashlib
import json

import pytest

from swarmpath.cli import main
from conftest import SCENARIO_DIR

GOLDEN = {
    ("run", "case1_gate.json", "--controller", "swarmpath"): {
        "trace.csv": "0c0fcc403d47ebf5ec4f7ec3ee13ae66bba01a0e664639cb31c1932003bf6ace",
        "metrics.json": "c4cf6eb2feab073cc87fe129bbaa1fff01e18b52743b8439320aab751ab05e17",
        "trace.svg": "655f7b4605f05344f340c9470ec3479e2c1d10fc3ad9f934d615d0cd702d22b7",
    },
    ("run", "case1_gate.json", "--controller", "apf"): {
        "trace.csv": "3687394e0b73c6dfb615b5c7a9cd00c6473c63b30439b3fa025fddd7ee9630d3",
        "metrics.json": "f04c7f0a51c9805891a8570aff5f14311f48cb987bcbc601f802345eb2342948",
        "trace.svg": "c0a97dd38dbb8af1344579147e85f4882dd61959b6f14962294c94cac79bae7b",
    },
    ("compare", "case2_forest.json"): {
        "trace_swarmpath.csv": "79b26c93c9a2f55274520ae646f2e66f53d4dd8c54bbae14419faa87c2642560",
        "trace_apf.csv": "d1bbd9d2a4430c7e53b741544575b03df9b3e0bbf5487552a640a6b55f67d7f3",
        "comparison.json": "b270ed4b103b606ee72d9a4ab7efef4a972dfedc0a95790971adb8d55850672e",
        "compare.svg": "f25ee7ecbd8b97c929286b72ca0f87c5e3b385973ae2aeb3a6be5f62df5d8b44",
    },
    ("sweep", "sweep_k.json"): {
        "sweep.json": "9f69e1ac74b52aa525f3ed7cce5fa292227e36ac28ac169eef0574a40fc3d8fe",
        "sweep.csv": "d74aa233ff7f6c8740135fd95df8acc69fa8593c18382047f53d4f1107f1380a",
    },
    ("sweep", "sweep_d.json"): {
        "sweep.json": "07b67e22d1fda3e706110530755060ab458de8c7577df2403904aef0431aba35",
        "sweep.csv": "fa67504f73d2d82cb4c641652ecdf650ae3d89fd8746bce1e9684b00e0aaa2b1",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda a: "-".join(a).replace(".json", ""))
def test_cli_outputs_match_golden_digests(argv, tmp_path, capsys):
    command, scenario, *flags = argv
    code = main([command, str(SCENARIO_DIR / scenario), *flags, "-o", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(GOLDEN[argv])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in written}
    assert digests == GOLDEN[argv]


# A 16-drone pin: case2_forest with the 4x4 grid formation (offsets -0.6, -0.2,
# 0.2, 0.6 m on each axis), so per-drone indexing is covered beyond four drones.
GRID = (-0.6, -0.2, 0.2, 0.6)
GOLDEN_GRID16 = {
    "trace.csv": "72c1466c754b57f8c0c90ba6197ea7787fd201c04c6f3aea89f3dff54c7d3eb9",
    "metrics.json": "37659f6a13d9f02b5ff468ddab6fafdc686292f6679b7df96b13811c143b3355",
}


def test_grid16_forest_run_matches_golden_digests(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "case2_forest.json").read_text(encoding="utf-8"))
    doc["formation_offsets"] = [[x, y] for x in GRID for y in GRID]
    scenario = tmp_path / "grid16_forest.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(scenario), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_GRID16}
    assert digests == GOLDEN_GRID16
