"""Byte pins for the scenario corpus.

Reruns give byte-identical reports and chain logs.  For every scenario in
`scenarios/` this runs `carbonmarket run --out`, then `verify`, `replay` and
`journal` on what the run wrote, and compares the sha256 of every output
file and of each command's stdout, and each exit code, with the pins below.

A pin moves only when an output changes.  After an intended output change,
print the table for the working tree with

    PYTHONPATH=src python3 tests/test_corpus_pins.py
"""

import hashlib
import io
import pprint
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from carbonmarket.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

PINS = {
    "app-rec-2020.yaml": {
        "run": (0, "116425663033bd040e3f771bf9d8cb087b427ebca5355ebc1c3d729e0d261446"),
        "verify": (0, "e0f597d77429acfc737894485d87907f0d915b546e37b87f8e506d4c1e167bf4"),
        "replay": (0, "64f584e8332ea121b917901968af5b8db39986767d028f49cb8009b3d774fad9"),
        "journal": (0, "6cb3b49238cbdeb944e440ea7158cd75898f764975e066a9235fab27654df7d9"),
        "out/balances.csv":
            "fad69179391c3593af1e8e2cc096563d885e8f354bc183902035bb002a4ba4d7",
        "out/chainlog.log":
            "20cf59ab92108d0699bc9ab2aeb3078fc2a2a9c78c79479e0005c25125e18ffc",
        "out/compliance.csv":
            "e9905fc84d520afeedb45a1234add7e02a34a00f9220d9e6a42a155080e6df0d",
        "out/genesis.json":
            "417072b970cea782cdc4f3f52aec15aab34fb2a06a5c92b75df1b604925ecd07",
        "out/journal.csv":
            "6cb3b49238cbdeb944e440ea7158cd75898f764975e066a9235fab27654df7d9",
        "out/market.csv":
            "19b44b73611323bd83d1597347ec80eb8ed134b0b18994241d5391457c1ea3ad",
        "out/run.csv":
            "4fc9865e1efe3214ef4d1896756875e65f257892f3b2dd507b80dec6fec34110",
        "out/trial_balance.csv":
            "8661f1d17b7a7ec36fce826719e1c125691dd9441442c01dcd658de6beec26b3",
    },
    "market-steering.yaml": {
        "run": (0, "4938895d7ac3c179678d1b4406a2cb9e05b9855540cc0dfdcc7ba52ebb4a65db"),
        "verify": (0, "e0f597d77429acfc737894485d87907f0d915b546e37b87f8e506d4c1e167bf4"),
        "replay": (0, "442c219b560ef89158370d1bb2eff7967fe584b62b4255ab8d901d9816e0ec81"),
        "journal": (0, "04f893bbbfe36ab58df00a447e872b48477d425a49a7dd5212f588b531e965a4"),
        "out/balances.csv":
            "6c784410153cd27b11fc82825d39981da89968cd255ebe7ed1a2309a33efcbba",
        "out/chainlog.log":
            "d9f545eae01724b36253b429bfe8264d0ae7baefd0dfd92221e2cae54a101e00",
        "out/compliance.csv":
            "e9905fc84d520afeedb45a1234add7e02a34a00f9220d9e6a42a155080e6df0d",
        "out/genesis.json":
            "ccdee9dc50146fbc65ec215c72a413a9e51e3a123abe26e000915df66eb7b7e4",
        "out/journal.csv":
            "04f893bbbfe36ab58df00a447e872b48477d425a49a7dd5212f588b531e965a4",
        "out/market.csv":
            "d3e067ee59af9e1643e04e8a7b59b9147449db5b5197b7d9c368d2cd77e8dcb7",
        "out/run.csv":
            "5556962d8a3816fc3d6a4b8735cf97ed3a7046e87f88005b0132f6566f4d9cf9",
        "out/trial_balance.csv":
            "62fa7e0eec46b7bd4f72b6b7e9d705f43ba458f5a13626ac31ac4fc853e44e61",
    },
    "shortfall-year.yaml": {
        "run": (0, "44c0502637ec407e3973b90c16971f21733282d4e58789822ff9284659839226"),
        "verify": (0, "e0f597d77429acfc737894485d87907f0d915b546e37b87f8e506d4c1e167bf4"),
        "replay": (0, "ce2cff659b16ebcffae3b19a6487464a0b207e90ff32765a567238ee10c59db5"),
        "journal": (0, "fa49d5f25092b787cdbdb6be128f86fbe0d212491182c9df0b65cc0899bf6dae"),
        "out/balances.csv":
            "84a952514dfae06c34140393e0b2c5271e067a82f8626b75fb56f22471f5165e",
        "out/chainlog.log":
            "12a58e0af1f1ec32257176465b68e8c4fc95ecb220ac312721a284c67f21a3e0",
        "out/compliance.csv":
            "6e6632e60b630f30b1478ae9bd1a28f8705d546d90a06506895c11e37b72bed5",
        "out/genesis.json":
            "8e8a73153c719a45b2b72bb7c4e857fcceea0041478158141fd1830bfd690ede",
        "out/journal.csv":
            "fa49d5f25092b787cdbdb6be128f86fbe0d212491182c9df0b65cc0899bf6dae",
        "out/market.csv":
            "9399fc8544d5e9a70bf7090cd039179d0cc6e3c3a0e4e156c16b776ed716f5ce",
        "out/run.csv":
            "24277be807c82a572e7ba725a73db2610a707d4c0d1044422059c3a46355fb2d",
        "out/trial_balance.csv":
            "29951906688be374aeb5d4550f628f4f5c1bd042327d2398281940a52d2c8502",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _command(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, _sha(out.getvalue().encode("utf-8"))


def observe(scenario: Path, work: Path) -> dict:
    out_dir = work / "out"
    chainlog, genesis = str(out_dir / "chainlog.log"), str(out_dir / "genesis.json")
    seen = {"run": _command("run", str(scenario), "--out", str(out_dir))}
    seen["verify"] = _command("verify", chainlog)
    seen["replay"] = _command("replay", chainlog, genesis)
    seen["journal"] = _command("journal", chainlog)
    for path in sorted(out_dir.iterdir()):
        seen[f"out/{path.name}"] = _sha(path.read_bytes())
    return seen


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
def test_corpus_outputs_match_pins(name, tmp_path, capsys):
    seen = observe(SCENARIO_DIR / name, tmp_path)
    capsys.readouterr()
    assert seen == PINS.get(name)


if __name__ == "__main__":
    table = {}
    for scenario in sorted(SCENARIO_DIR.glob("*.yaml")):
        with tempfile.TemporaryDirectory() as work:
            table[scenario.name] = observe(scenario, Path(work))
    pprint.pprint(table, width=100)
