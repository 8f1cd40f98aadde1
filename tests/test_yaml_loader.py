"""The scenario loader builds the document from libyaml's events: the tree,
its types and every error must be what PyYAML's own safe loader gives."""

import functools
import math

import pytest
import yaml

import carbonmarket.scenario as scenario_module
from carbonmarket import ErrorCode, LedgerError, parse_scenario
from conftest import SCENARIO_DIR, load_gen

BASES = [pytest.param(yaml.SafeLoader, id="SafeLoader"),
         pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                      marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                               reason="PyYAML built without libyaml"))]


def exact(value):
    """`value` as a structure equal only to that of a value of the same
    types throughout: 1, 1.0 and True differ, NaN equals NaN, and mapping
    keys keep their order."""
    if isinstance(value, float) and math.isnan(value):
        return float, "nan"
    if isinstance(value, dict):
        return dict, [(exact(k), exact(v)) for k, v in value.items()]
    if isinstance(value, list):
        return list, [exact(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return type(value), frozenset(exact(item) for item in value)
    return type(value), value


def outcome(loader, text):
    """The exact tree `loader` builds from `text`, or the error it raises."""
    try:
        return "tree", exact(yaml.load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return "error", type(exc), str(exc)


def test_the_scenario_loader_is_the_event_walk_over_the_libyaml_parser():
    loader = scenario_module._YAML_LOADER
    assert issubclass(loader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert "get_single_data" in vars(loader)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
def test_corpus_tree_is_pyyamls(base, name):
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8")
    got = outcome(scenario_module._event_loader(base), text)
    assert got[0] == "tree"
    assert got == outcome(yaml.SafeLoader, text)


@functools.cache
def workload(name: str, seed: int) -> tuple[str, tuple]:
    """A benchmark workload's scenario text and its tree under SafeLoader."""
    text = load_gen().generate(name, seed)
    return text, outcome(yaml.SafeLoader, text)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["orgs10-mixed", "orgs10-reprice", "orgs1000-mixed"])
def test_workload_tree_is_pyyamls(base, name, seed):
    text, expected = workload(name, seed)
    got = outcome(scenario_module._event_loader(base), text)
    assert got[0] == "tree"
    assert got == expected


EDGE_CASES = {
    "anchor-alias": "a: &x [1, 2]\nb: *x\n",
    "merge": "base: &b {x: 1, y: 2}\nm: {<<: *b, y: 3}\n",
    "merge-list": "a: &a {x: 1}\nb: &b {y: 2}\nm:\n  <<: [*a, *b]\n  z: 3\n",
    "str-tag": "a: !!str 5\nb: !!int '7'\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [x: 1, y: 2]\n",
    "date-datetime": ("d: 2020-01-01\nt: 2020-01-01T10:20:30.5Z\n"
                      "u: 2001-12-14 21:59:43.10 -5\nn: 2020-01-01 10:20:30\n"),
    "bools": "[yes, No, on, OFF, true, False, TRUE, y, n]\n",
    "nulls": "a: ~\nb: null\nc:\nd: Null\n? e\n",
    "ints": "[0, 010, 0o10, 0x1F, 1_000, 1:20, 0b101, -0, +12, -1:30, 12345678901234567890]\n",
    "floats": "[.inf, -.Inf, +.INF, .nan, .NaN, 1.5e3, 1_0.5, 1:20.5, 0.1, -2., 6.8523015e+5]\n",
    "value-key": "a: {=: 1}\n",
    "value-scalar": "a: =\n",
    "merge-scalar": "a: <<\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    "collection-key": "? [a, b]\n: 1\n",
    "mapping-key": "? {a: 1}\n: 1\n",
    "empty-stream": "",
    "comment-only": "# nothing here\n",
    "empty-document": "---\n",
    "explicit-end": "--- {a: 1}\n...\n",
    "scalar-document": "just text\n",
    "int-document": "42\n",
    "quoted": "a: '5'\nb: \"null\"\nc: 'true'\nd: \"1.5\"\ne: ''\n",
    "block-scalars": "a: |\n  5\n  x\nb: >-\n  folded\n  text\nc: |-\n  true\n",
    "non-specific-tag": "a: ! 5\nb: ! {c: 1}\nc: ! [x]\n",
    "nested": "a: [[1, {b: [c, {d: e}]}], []]\nf: {}\n",
    "keys-typed": "1: a\n1.5: b\ntrue: c\n~: d\n2020-01-01: e\n",
    "unicode": "name: caf\u00e9 \u2014 \u00fcber\nb: \"\\u00e9\"\n",
    "repeated-scalars": "- {x: 1, y: one}\n- {x: 1, y: one}\n- {x: 1, y: 'one'}\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "timestamp-out-of-range-quoted": "a: '2020-13-45'\n",
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_is_pyyamls(base, text):
    got = outcome(scenario_module._event_loader(base), text)
    assert got == outcome(base, text)
    if got[0] == "tree":
        assert got == outcome(yaml.SafeLoader, text)


MALFORMED = {
    "scanner-error": "name: x\n  genesis: {}\n",
    "parser-error": "name: x\nsteps: [\n  {time: t1},\n",
    "undefined-alias": "name: *x\n",
    "two-documents": "name: x\n---\nname: y\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
    "error-after-fallback": "a: &x 1\nb: [\n",
    "tab-indent": "name: x\n\tsteps: []\n",
    "unhashable-key": "? [a]\n: 1\n",
    "value-scalar": "name: =\n",
    "impossible-date-then-parser-error": "description: 2020-13-45\nsteps: [\n",
    "impossible-date-then-two-documents": "b: 2020-13-45\n---\nc: 1\n",
    "impossible-date": "name: x\ndescription: 2020-13-45\n",
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_error_is_pyyamls(monkeypatch, base, text):
    messages = []
    for loader in (scenario_module._event_loader(base), base):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        with pytest.raises(LedgerError) as err:
            parse_scenario(text)
        assert err.value.code is ErrorCode.SYNTAX_ERROR
        messages.append(err.value.message)
    assert messages[0] == messages[1]


def nested(depth: int) -> str:
    return "name: x\nsteps: " + "[" * depth + "]" * depth + "\n"


LIMIT = scenario_module._MAX_DEPTH
DEEP = "[" * 40000 + "]" * 40000


# (text, 0-based line and column of the "[" one level past the limit); the
# root mapping is a level, so on a `steps:` line that is the LIMIT-th "["
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("text, line, column", [
    (nested(40000), 1, len("steps: ") + LIMIT - 1),
    ("name: &n x\nsteps: " + DEEP + "\n", 1, len("steps: ") + LIMIT - 1),  # then a fallback
    ("name: x\n---\n" + DEEP + "\n", 2, LIMIT),                       # in a second document
    ("name: x\nsteps: " + "[" * 40000 + "\n", 1, len("steps: ") + LIMIT - 1),  # never closed
], ids=["plain", "after-an-anchor", "second-document", "unclosed"])
def test_nesting_past_the_limit_is_a_composer_error(base, text, line, column):
    with pytest.raises(yaml.composer.ComposerError) as err:
        yaml.load(text, Loader=scenario_module._event_loader(base))
    assert err.value.problem == f"nesting deeper than {LIMIT} levels"
    assert (err.value.problem_mark.line, err.value.problem_mark.column) == (line, column)


@pytest.mark.parametrize("base", BASES)
def test_nesting_at_the_limit_loads(base):
    loader = scenario_module._event_loader(base)
    assert yaml.load(nested(LIMIT - 1), Loader=loader) == yaml.load(nested(LIMIT - 1),
                                                                     Loader=yaml.SafeLoader)
    tree = yaml.load("[" * LIMIT + "]" * LIMIT, Loader=loader)
    for _ in range(LIMIT - 1):
        tree = tree[0]
    assert tree == []
