"""Golden output pins: the sha256 of every file the CLI writes for the shipped scenarios.

A refactor must leave these bytes alone.  A change that alters them on purpose
re-pins the digests here and says which outputs changed and why.
"""

import hashlib

import pytest

from swarmpath.cli import main
from conftest import SCENARIO_DIR

GOLDEN = {
    ("run", "case1_gate.json", "--controller", "swarmpath"): {
        "trace.csv": "65cdd6805afdb337a029ffe8a477818928038e6794fb32406dacb842c40b5f05",
        "metrics.json": "980a37f8070c895ffd81b5e7a15b97fbf33883c27512ab2730fe093cedc43c75",
        "trace.svg": "a8880ca87e7e3c9f36d27adec044d4126eeac303e6f703c15addc786b629c93f",
    },
    ("run", "case1_gate.json", "--controller", "apf"): {
        "trace.csv": "3687394e0b73c6dfb615b5c7a9cd00c6473c63b30439b3fa025fddd7ee9630d3",
        "metrics.json": "f04c7f0a51c9805891a8570aff5f14311f48cb987bcbc601f802345eb2342948",
        "trace.svg": "c0a97dd38dbb8af1344579147e85f4882dd61959b6f14962294c94cac79bae7b",
    },
    ("compare", "case2_forest.json"): {
        "trace_swarmpath.csv": "fabc1f65525201d51240406bd99d5d3c94cb5bf845a13e7c25e7806520b06cd5",
        "trace_apf.csv": "d1bbd9d2a4430c7e53b741544575b03df9b3e0bbf5487552a640a6b55f67d7f3",
        "comparison.json": "7249c6f3875739e243daedb8c13c3e662f2403d8ffd3c3e6b49d6061c8e9ce00",
        "compare.svg": "a61b1860ff06bcb349b099483b4d61cfc4ef912768af038b227ad6f2b8251f9c",
    },
    ("sweep", "sweep_k.json"): {
        "sweep.json": "edca1bbc1475d4f14ee8d3b32490fecd85b0ad526ca804acf24ed98ca307b96d",
        "sweep.csv": "4c81a218e8299feacf802f186efaedfd484c1b412607d2273147eaad57ccf3cd",
    },
    ("sweep", "sweep_d.json"): {
        "sweep.json": "bed071ba3f6815cfb3c12df6119b38e1a238a8af0d649c7b8161c4a9aed84b60",
        "sweep.csv": "a0d70a13b9c78a4b46e0e35edcb793e47c41963373cd5877eb62f79e510b778e",
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
