"""The benchmark workloads' output bytes, checked in the tier-1 suite.

Each workload is generated at seed 1 by `perfbench/gen.py` and run in
process through the CLI; the sha256 of `chainlog.log`, `journal.csv` and
`balances.csv` must equal `perfbench/pins.json`, the pins the benchmark
checks, and `journal` rebuilt from the log must print `journal.csv`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from carbonmarket.cli import main
from conftest import load_gen

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))


gen = load_gen()


@pytest.mark.parametrize("workload", sorted(PINS))
def test_workload_outputs_match_the_pins(workload, tmp_path, capsys):
    scenario = tmp_path / f"{workload}.yaml"
    scenario.write_text(gen.generate(workload, 1), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    texts = {name: (out_dir / name).read_text(encoding="utf-8") for name in PINS[workload]}
    assert {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in texts.items()} == PINS[workload]
    capsys.readouterr()
    assert main(["journal", str(out_dir / "chainlog.log")]) == 0
    assert capsys.readouterr().out == texts["journal.csv"]
