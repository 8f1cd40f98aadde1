"""What each entry point loads: `import carbonmarket` is lazy, the audit
commands never load PyYAML, the scenario module or the journal, `verify`
loads no state machine and no decimal parser, running a parsed scenario
loads no module that parsing it did not, `run` of a corpus scenario loads
no decimal parser either, `price-curve` loads
no ledger, no command loads `dataclasses`, the benchmark's traced run still
finds every name it wraps, the README's package layout names every module
and its chart of accounts is `Account`'s, every source file parses as
Python 3.10, no source line is longer than 99 characters, and only
`fixed.py` words an amount's range refusal."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import carbonmarket
from carbonmarket.cli import main
from carbonmarket.journal import Account

from conftest import GOLDEN_SCENARIO, SCENARIO_DIR

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")

RUN_ONLY = ("yaml", "carbonmarket.scenario", "carbonmarket.journal")
# what applying transactions and writing reports needs; the log format does not
STATE_MACHINE = ("carbonmarket.ledger", "carbonmarket.exchange", "carbonmarket.reports")
# what only parsing an amount from text needs; a log holds micro-units
TEXT_AMOUNTS = ("decimal",)

# Runs in a fresh interpreter: after each stage, which of RUN_ONLY, of
# STATE_MACHINE and of TEXT_AMOUNTS are loaded.
FOOTPRINT = """
import contextlib, io, json, sys
RUN_ONLY = {run_only!r}
STATE_MACHINE = {state_machine!r}
TEXT_AMOUNTS = {text_amounts!r}
loaded, state, text = {{}}, {{}}, {{}}
def stage(name):
    loaded[name] = [module for module in RUN_ONLY if module in sys.modules]
    state[name] = [module for module in STATE_MACHINE if module in sys.modules]
    text[name] = [module for module in TEXT_AMOUNTS if module in sys.modules]
import carbonmarket
stage("import carbonmarket")
from carbonmarket import cli
stage("import carbonmarket.cli")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify", {log!r}]))
    stage("verify")
    codes.append(cli.main(["replay", {log!r}, {genesis!r}]))
    stage("replay")
    codes.append(cli.main(["journal", {log!r}]))
    stage("journal")
print(json.dumps({{"codes": codes, "loaded": loaded, "state": state, "text": text}}))
"""


# Runs in a fresh interpreter: `price-curve`, then its exit code and which of
# STATE_MACHINE are loaded.
PRICE_CURVE = """
import contextlib, io, json, sys
from carbonmarket import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["price-curve", "--f", "0.5", "--s0", "1000", "--c0", "10000",
                     "--min", "500", "--max", "2000", "--points", "4"])
print(json.dumps([code, [module for module in {state_machine!r} if module in sys.modules]]))
"""


# Runs in a fresh interpreter: the two calls `run` makes, then the
# carbonmarket modules each one loaded.
PARSE_THEN_RUN = """
import json, sys
from carbonmarket import cli
def package():
    return {{name for name in sys.modules if name.startswith("carbonmarket.")}}
before = package()
scenario = cli.load_scenario({scenario!r})
parsed = package()
result = cli.run_scenario(scenario)
print(json.dumps([result.ok, sorted(parsed - before), sorted(package() - parsed)]))
"""


# Runs in a fresh interpreter: `run` of one scenario, then its exit code and
# which of the decimal modules are loaded.
RUN_DECIMAL = """
import contextlib, io, json, sys
from carbonmarket import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", {scenario!r}])
print(json.dumps([code, [module for module in ("decimal", "_decimal", "_pydecimal")
                         if module in sys.modules]]))
"""


# Runs in a fresh interpreter: each command in turn, then its exit code and
# whether `dataclasses` is loaded by then.
DATACLASSES = """
import contextlib, io, json, sys
from carbonmarket import cli
after = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {commands!r}:
        after[argv[0]] = [cli.main(argv), "dataclasses" in sys.modules]
print(json.dumps(after))
"""


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["run", str(GOLDEN_SCENARIO), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def footprint(golden_run):
    script = FOOTPRINT.format(run_only=RUN_ONLY, state_machine=STATE_MACHINE,
                              text_amounts=TEXT_AMOUNTS,
                              log=str(golden_run / "chainlog.log"),
                              genesis=str(golden_run / "genesis.json"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_audit_commands_load_no_run_modules(footprint):
    report = footprint
    assert report["codes"] == [0, 0, 0]
    assert report["loaded"] == {
        "import carbonmarket": [],
        "import carbonmarket.cli": [],
        "verify": [],
        "replay": [],
        "journal": ["carbonmarket.journal"],
    }


def test_verify_loads_no_state_machine(footprint):
    assert footprint["codes"] == [0, 0, 0]
    assert footprint["state"]["import carbonmarket"] == []
    assert footprint["state"]["import carbonmarket.cli"] == []
    assert footprint["state"]["verify"] == []
    assert footprint["state"]["replay"] == list(STATE_MACHINE)


def test_verify_loads_no_decimal_parser(footprint):
    assert footprint["codes"] == [0, 0, 0]
    for stage in ("import carbonmarket", "import carbonmarket.cli", "verify"):
        assert footprint["text"][stage] == [], stage


def test_price_curve_loads_no_ledger():
    # the curve math and the table writer only; `cli` itself loads the log
    # format, whose names the benchmark's traced run wraps
    script = PRICE_CURVE.format(state_machine=STATE_MACHINE)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, ["carbonmarket.exchange", "carbonmarket.reports"]]


def test_running_a_parsed_scenario_loads_no_module():
    """Parsing a scenario loads everything its run needs: the parser and the
    run are one module."""
    script = PARSE_THEN_RUN.format(scenario=str(GOLDEN_SCENARIO))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ok, parsed, ran = json.loads(proc.stdout)
    assert ok and "carbonmarket.scenario" in parsed
    assert ran == []


@pytest.mark.parametrize("scenario", sorted(path.name for path in SCENARIO_DIR.glob("*.yaml")))
def test_run_loads_no_decimal_parser(scenario):
    """Every amount a scenario writes is read in integer arithmetic; only a
    refused spelling loads `decimal`, to name what is wrong with it."""
    script = RUN_DECIMAL.format(scenario=str(SCENARIO_DIR / scenario))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_no_command_loads_dataclasses(golden_run):
    log, genesis = str(golden_run / "chainlog.log"), str(golden_run / "genesis.json")
    commands = [["verify", log], ["replay", log, genesis], ["journal", log],
                ["run", str(GOLDEN_SCENARIO)]]
    proc = subprocess.run([sys.executable, "-c", DATACLASSES.format(commands=commands)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {command: [0, False] for command in
                                       ("verify", "replay", "journal", "run")}


@pytest.mark.parametrize("name", carbonmarket.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = import_module(f"carbonmarket.{carbonmarket._HOME[name]}")
    assert getattr(carbonmarket, name) is getattr(home, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from carbonmarket import *", namespace)
    assert {name: namespace[name] for name in carbonmarket.__all__} == {
        name: getattr(carbonmarket, name) for name in carbonmarket.__all__}


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(carbonmarket, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        carbonmarket.no_such_name  # noqa: B018
    assert set(carbonmarket.__all__) <= set(dir(carbonmarket))


def test_readme_package_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Package layout\n", 1)[1].split("```\n", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = [path.name for path in (ROOT / "src" / "carbonmarket").glob("*.py")]
    assert sorted(listed) == sorted(name for name in modules if name != "__init__.py")


def test_readme_chart_of_accounts_is_the_account_enum():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    policy = readme.split("\n## Accounting policy\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (.+?) \| (\w+) \|$", policy, flags=re.MULTILINE)
    assert rows[1:] == [(a.value, a.account_class.value) for a in Account]


@pytest.mark.parametrize("pattern", ["src/carbonmarket/*.py", "demos/*.py", "tests/*.py"])
def test_source_parses_as_python_3_10(pattern):
    """pyproject.toml declares Python 3.10 as the floor."""
    for path in sorted(ROOT.glob(pattern)):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("pattern", ["src/carbonmarket/*.py", "demos/*.py", "tests/*.py"])
def test_source_lines_fit_99_columns(pattern):
    long_lines = [f"{path.relative_to(ROOT)}:{number}"
                  for path in sorted(ROOT.glob(pattern))
                  for number, line in enumerate(
                      path.read_text(encoding="utf-8").splitlines(), start=1)
                  if len(line) > 99]
    assert long_lines == []


def test_only_fixed_words_the_range_refusal():
    """`fixed.py` alone bounds, refuses and writes an amount: no other module
    spells out its refusal."""
    spelled = [path.name for path in sorted((ROOT / "src" / "carbonmarket").glob("*.py"))
               if "amount exceeds the representable range" in path.read_text(encoding="utf-8")]
    assert spelled == ["fixed.py"]


def _span_names(path: Path) -> set:
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    return {span[0] for span in spans}


def _step_span_names(path: Path) -> set:
    """Names of the spans directly inside `runner.run_scenario`, without a
    per-kind suffix such as `/mintPermit`."""
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    return {name.split("/")[0] for name, _, _, up, _ in spans
            if up >= 0 and spans[up][0] == "runner.run_scenario"}


def test_benchmark_traced_run_finds_the_names_it_wraps(tmp_path):
    """perfbench/traced.py replaces library names in place before it calls
    the CLI; each wrapped layer must show up as a span, and each per-step
    layer as one the run's steps make."""
    out, run_spans, audit_spans = tmp_path / "out", tmp_path / "run.json", tmp_path / "audit.json"
    traced = [sys.executable, str(PERFBENCH / "traced.py")]
    proc = subprocess.run([*traced, "run", str(GOLDEN_SCENARIO), str(out), str(run_spans)],
                          cwd=PERFBENCH, env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([*traced, "audit", str(out), str(audit_spans)],
                          cwd=PERFBENCH, env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("chain valid\nreplay ok:")
    assert {"scenario.yaml", "scenario.parse", "runner.run_scenario"} <= _span_names(run_spans)
    assert {"ledger.apply", "ledger.digest", "chainlog.append",
            "journal.on_event"} <= _step_span_names(run_spans)
    assert {"chainlog.verify_text", "chainlog.from_text",
            "chainlog.replay"} <= _span_names(audit_spans)
