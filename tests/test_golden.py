"""Golden output pins: the sha256 of every file the CLI writes for the shipped scenarios.

A refactor must leave these bytes alone.  A change that alters them on purpose
re-pins the digests here and says which outputs changed and why.
"""

import hashlib
import json

import pytest

from swarmpath.cli import main
from swarmpath.sweep import read_sweep
from swarmpath.world import read_scenario, serialize_scenario
from conftest import SCENARIO_DIR, grid16_forest_doc, sweep_traces

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


# A 16-drone pin: case2_forest with the 4x4 grid formation.
GOLDEN_GRID16 = {
    "trace.csv": "72c1466c754b57f8c0c90ba6197ea7787fd201c04c6f3aea89f3dff54c7d3eb9",
    "metrics.json": "37659f6a13d9f02b5ff468ddab6fafdc686292f6679b7df96b13811c143b3355",
    "trace.svg": "218a5a147d4d75e175f5842f37067c1a8064d051dc35cb401dcdd28aa54bd27c",
}


def test_grid16_forest_run_matches_golden_digests(tmp_path, capsys):
    scenario = tmp_path / "grid16_forest.json"
    scenario.write_text(json.dumps(grid16_forest_doc()), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(scenario), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_GRID16}
    assert digests == GOLDEN_GRID16


# Degenerate edge: one drone on the leader, start == goal, no obstacles.  The
# run stops on frame 0, so every polyline has a single point, the pairwise
# spread is over no pairs (0.0) and the clearance is null.
EDGE_SCENARIO = {"start": [0.5, -0.25], "goal": [0.5, -0.25], "formation_offsets": [[0, 0]]}
EDGE_SWARMPATH_CSV = "375e68c67a1de6493c831edaf23457c1477b98ed7be459ffd0c73ebb22126d35"
EDGE_APF_CSV = "616eacdc570322cc32858a717c076557801e0b7a73c3ec27fac9cb0b344f66ba"
GOLDEN_EDGE = {
    ("run", "--controller", "swarmpath"): {
        "trace.csv": EDGE_SWARMPATH_CSV,
        "metrics.json": "9b9fe09a9cb9256b0b8538dc4e960ab9d655e3c7ef7b61f22bc674f0cf2f6b35",
        "trace.svg": "d0743bfd50bd5852ccad84ccb5494f550f812bf32bafc1658ef29c814451af6f",
    },
    ("run", "--controller", "apf"): {
        "trace.csv": EDGE_APF_CSV,
        "metrics.json": "c69393330af4f62307e6a932b46d0f66e33d0f3b6ab11d75221fc66cef047606",
        "trace.svg": "32213374fa47b0a637a09797650d1c8ea8648a646bf8f27d56c52c637a09cca9",
    },
    ("compare",): {
        "trace_swarmpath.csv": EDGE_SWARMPATH_CSV,
        "trace_apf.csv": EDGE_APF_CSV,
        "comparison.json": "2f5043d51eb534bd1f0c93ffbd7f943da11ab72bdc0ad3ba3a45755c6f44aff8",
        "compare.svg": "bd496bc2db79afef50b707412d40b0860a6adf017389548591a54c421367ec80",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_EDGE), ids="-".join)
def test_single_frame_edge_matches_golden_digests(argv, tmp_path, capsys):
    scenario = tmp_path / "edge.json"
    scenario.write_text(json.dumps(EDGE_SCENARIO), encoding="utf-8")
    out = tmp_path / "out"
    command, *flags = argv
    code = main([command, str(scenario), *flags, "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_EDGE[argv]


# The scenario encoder's bytes: key order, number formatting and indentation.
GOLDEN_SERIALIZED = {
    "case1_gate.json": "b90658d0c3b15eb73841ef6e1ef36ca053184eea8c3e6d06b192b85f22ce34ed",
    "case2_forest.json": "72b0a4653204763c9aa4c98d6c1d3591f9d249c5b532659658bcbca3fc6de28f",
}


@pytest.mark.parametrize("name", list(GOLDEN_SERIALIZED))
def test_serialized_scenario_matches_golden_digest(name):
    text = serialize_scenario(read_scenario(SCENARIO_DIR / name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SERIALIZED[name]


# Every sweep point's columns at full precision, as sha256 of (positions,
# modes) bytes: sweep.json and sweep.csv round to 6 digits, so a last-bit
# drift in a point's run would change no byte of them.
GOLDEN_SWEEP_POINTS = {
    ("sweep_k.json", 20.88): (
        "9fc9dca0a08e02aaafda01ab7b34c0be4e8422f69a5e673c566b0547fd46da92",
        "42595a40dcbedc38973ced53e866d0a154619d6dda82f05f84c8775caadd39cf"),
    ("sweep_k.json", 23.0): (
        "f1539740c53fd4a37422989103205c4fba0823174d698d3b2403d8611f02e7d0",
        "79a8916b3b6ae44acdcdc2636d3f34544c9b08bc36e96bd88c9d3a2f5f1c3a27"),
    ("sweep_k.json", 25.0): (
        "50c679c217d32500ea40c81631187d16f919a70101968ee03c16b42a56ee4ba0",
        "531978ed3d0ccf2a65cca217e0e30b0dcd19b5551813f8318fba6ceab8029d7c"),
    ("sweep_k.json", 27.0): (
        "4448afc6e97d4185cf203d16b12df9e29ca0925969948c0ddca2bd754408f41f",
        "2e04d44fe6c1d4aae181b825116e4d598f3789a659695cf752188a8617f0ff64"),
    ("sweep_k.json", 29.0): (
        "a6058f01a463a9cd0a9e30f735a26a7c80f278993714eee6d1f5c12740aaaffe",
        "8e728c94201c11f499eb9c942819c57a3afcafec2ec4ca70604d786ff0b31934"),
    ("sweep_d.json", 12.5): (
        "e70d4c2d6527cadda2a2a187a9187dcdc16ca3aeba2c4a5059bc1543b4f62e85",
        "42595a40dcbedc38973ced53e866d0a154619d6dda82f05f84c8775caadd39cf"),
    ("sweep_d.json", 12.6): (
        "9fc9dca0a08e02aaafda01ab7b34c0be4e8422f69a5e673c566b0547fd46da92",
        "42595a40dcbedc38973ced53e866d0a154619d6dda82f05f84c8775caadd39cf"),
    ("sweep_d.json", 12.7): (
        "3965a7e253c90d64370fb0f363441b53bd9b8f24406ff5fa63418531e19378e0",
        "7a0a7703b01a395ea51979a37a0c61d140704fcbaac96117868ef05472ba1fc9"),
    ("sweep_d.json", 12.8): (
        "a2142760e5f822909f19de8efbae0fbb32bc1bd7cafaa0852ba53ce00dc0cd8c",
        "1621025848ffbc90781f29ad10776bcff5f95de888556be515b9e017aa66ea37"),
}


@pytest.mark.parametrize("name", ["sweep_k.json", "sweep_d.json"])
def test_sweep_point_columns_match_golden_digests(name, monkeypatch):
    result, traces = sweep_traces(read_sweep(SCENARIO_DIR / name), monkeypatch)
    digests = {(name, r.value): (hashlib.sha256(t.positions.tobytes()).hexdigest(),
                                 hashlib.sha256(t.modes.tobytes()).hexdigest())
               for r, t in zip(result.runs, traces)}
    assert digests == {key: pin for key, pin in GOLDEN_SWEEP_POINTS.items() if key[0] == name}
