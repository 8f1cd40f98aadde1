"""The scenario loader builds the document from the parser's events, reading
scenario YAML: a subset of YAML with one scalar rule.  Within the subset its
tree must be the one PyYAML's safe loader builds when the scenario's null and
bool spellings are its only implicit resolvers; outside it, the loader
refuses the input at its line and column, and the parser's own errors keep
PyYAML's message."""

import functools
import re

import pytest
import yaml

import carbonmarket.scenario as scenario_module
from carbonmarket import ErrorCode, LedgerError, parse_scenario
from conftest import SCENARIO_DIR, load_gen


class Reference(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader typing a plain scalar as a scenario
    does: null and bool spellings only, every other plain scalar is text."""

    yaml_implicit_resolvers: dict = {}


Reference.add_implicit_resolver("tag:yaml.org,2002:null",
                                re.compile(r"^(?:~|null|Null|NULL|)$"), ["~", "n", "N", ""])
Reference.add_implicit_resolver("tag:yaml.org,2002:bool",
                                re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"),
                                list("tTfF"))

LOADER = scenario_module._YAML_LOADER
C_LOADER = getattr(yaml, "CSafeLoader", None)

# (the walk over a parser, Reference's typing over the same parser): the two
# parsers word their errors differently
BASES = [
    pytest.param((type("W", (yaml.SafeLoader,), {"get_single_data": LOADER.get_single_data}),
                  Reference), id="SafeLoader"),
    pytest.param((LOADER, C_LOADER and type("CReference", (C_LOADER,), {
                      "yaml_implicit_resolvers": Reference.yaml_implicit_resolvers})),
                 id="CSafeLoader",
                 marks=pytest.mark.skipif(C_LOADER is None,
                                          reason="PyYAML built without libyaml")),
]


def exact(value):
    """`value` as a structure equal only to that of a value of the same
    types throughout: "1", True and None differ from each other and from
    their text, and mapping keys keep their order."""
    if isinstance(value, dict):
        return dict, [(exact(k), exact(v)) for k, v in value.items()]
    if isinstance(value, list):
        return list, [exact(item) for item in value]
    return type(value), value


def outcome(loader, text):
    """The exact tree `loader` builds from `text`, or the error it raises."""
    try:
        return "tree", exact(yaml.load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return "error", type(exc), str(exc)


def scenario_error(monkeypatch, loader, text) -> LedgerError:
    monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
    with pytest.raises(LedgerError) as err:
        parse_scenario(text)
    return err.value


def test_the_scenario_loader_is_the_event_walk_over_the_libyaml_parser():
    assert issubclass(LOADER, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert "get_single_data" in vars(LOADER)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
def test_corpus_tree_is_pyyamls(base, name):
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8")
    got = outcome(base[0], text)
    assert got[0] == "tree"
    assert got == outcome(Reference, text)


@functools.cache
def workload(name: str, seed: int) -> tuple[str, tuple]:
    """A benchmark workload's scenario text and its tree under Reference."""
    text = load_gen().generate(name, seed)
    return text, outcome(Reference, text)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["orgs10-mixed", "orgs10-reprice", "orgs1000-mixed"])
def test_workload_tree_is_pyyamls(base, name, seed):
    text, expected = workload(name, seed)
    got = outcome(base[0], text)
    assert got[0] == "tree"
    assert got == expected


# YAML inside the subset: the walk builds the tree Reference builds
EDGE_CASES = {
    "date-datetime": ("d: 2020-01-01\nt: 2020-01-01T10:20:30.5Z\n"
                      "u: 2001-12-14 21:59:43.10 -5\nn: 2020-01-01 10:20:30\n"),
    "bools": "[yes, No, on, OFF, true, False, TRUE, y, n]\n",
    "nulls": "a: ~\nb: null\nc:\nd: Null\n? e\n",
    "near-spellings": "[NULL, FALSE, tRue, nULL, 'null', \"TRUE\", ~x, truee]\n",
    "ints": "[0, 010, 0o10, 0x1F, 1_000, 1:20, 0b101, -0, +12, -1:30, 12345678901234567890]\n",
    "floats": "[.inf, -.Inf, +.INF, .nan, .NaN, 1.5e3, 1_0.5, 1:20.5, 0.1, -2., 6.8523015e+5]\n",
    "value-key": "a: {=: 1}\n",
    "value-scalar": "a: =\n",
    "merge-scalar": "a: <<\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
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
    "timestamp-out-of-range-quoted": "a: '2020-13-45'\n",
}

# YAML outside the subset: (text, 1-based line and column, problem) of the
# refusal, a syntax error
OUTSIDE = {
    "anchor-alias": ("a: &x [1, 2]\nb: *x\n", 1, 4, "an anchor is not scenario YAML"),
    "alias": ("a: 1\nb: *a\n", 2, 4, "an alias is not scenario YAML"),
    "merge": ("base: &b {x: 1, y: 2}\nm: {<<: *b, y: 3}\n", 1, 7,
              "an anchor is not scenario YAML"),
    "merge-alias": ("m: {x: 1, <<: *b}\n", 1, 15, "an alias is not scenario YAML"),
    "merge-list": ("a: &a {x: 1}\nb: &b {y: 2}\nm:\n  <<: [*a, *b]\n  z: 3\n", 1, 4,
                   "an anchor is not scenario YAML"),
    "str-tag": ("a: !!str 5\nb: !!int '7'\n", 1, 4,
                "the tag 'tag:yaml.org,2002:str' is not scenario YAML"),
    "binary": ("a: !!binary aGVsbG8=\n", 1, 4,
               "the tag 'tag:yaml.org,2002:binary' is not scenario YAML"),
    "set": ("a: !!set {x, y}\n", 1, 4, "the tag 'tag:yaml.org,2002:set' is not scenario YAML"),
    "omap": ("a: !!omap [x: 1, y: 2]\n", 1, 4,
             "the tag 'tag:yaml.org,2002:omap' is not scenario YAML"),
    "collection-key": ("? [a, b]\n: 1\n", 1, 3, "a collection key is not scenario YAML"),
    "mapping-key": ("? {a: 1}\n: 1\n", 1, 3, "a collection key is not scenario YAML"),
    "two-documents": ("a: 1\n---\nb: 2\n", 2, 1, "a second document is not scenario YAML"),
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", [*EDGE_CASES, *OUTSIDE])
def test_edge_case_is_pyyamls(monkeypatch, base, name):
    """An edge case inside the subset loads as Reference loads it; one
    outside is a syntax error at its line and column."""
    walk = base[0]
    if name in EDGE_CASES:
        got = outcome(walk, EDGE_CASES[name])
        assert got[0] == "tree"
        assert got == outcome(Reference, EDGE_CASES[name])
        return
    text, line, column, problem = OUTSIDE[name]
    with pytest.raises(scenario_module._NotInSubset):
        yaml.load(text, Loader=walk)
    err = scenario_error(monkeypatch, walk, text)
    assert err.code is ErrorCode.SYNTAX_ERROR
    assert err.message.startswith(
        f"bad scenario file at line {line}, column {column}: {problem}\n")


def test_a_plain_text_is_one_object_per_load():
    tree = yaml.load("[abc, abc, {abc: abc}]", Loader=LOADER)
    assert tree[0] is tree[1] is next(iter(tree[2])) is tree[2]["abc"]


# Malformed scenario files.  Where the line and column are None, the error
# is the one parsing with Reference gives: the parser's own syntax error, or
# a schema error where the YAML holds no scenario (`=` and `2020-13-45` are
# text).  Otherwise the input is outside the subset, a syntax error there.
MALFORMED = {
    "scanner-error": ("name: x\n  genesis: {}\n", None),
    "parser-error": ("name: x\nsteps: [\n  {time: t1},\n", None),
    "tab-indent": ("name: x\n\tsteps: []\n", None),
    "value-scalar": ("name: =\n", None),
    "impossible-date-then-parser-error": ("description: 2020-13-45\nsteps: [\n", None),
    "impossible-date": ("name: x\ndescription: 2020-13-45\n", None),
    "undefined-alias": ("name: *x\n", (1, 7)),
    "two-documents": ("name: x\n---\nname: y\n", (2, 1)),
    "duplicate-anchor": ("a: &x 1\nb: &x 2\n", (1, 4)),
    "error-after-fallback": ("a: &x 1\nb: [\n", (1, 4)),    # the anchor comes first
    "unhashable-key": ("? [a]\n: 1\n", (1, 3)),
    "impossible-date-then-two-documents": ("b: 2020-13-45\n---\nc: 1\n", (2, 1)),
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_scenario_error_is_pyyamls(monkeypatch, base, name):
    walk, reference = base
    text, where = MALFORMED[name]
    err = scenario_error(monkeypatch, walk, text)
    if where is None:
        expected = scenario_error(monkeypatch, reference, text)
        assert (err.code, err.message) == (expected.code, expected.message)
    else:
        assert err.code is ErrorCode.SYNTAX_ERROR
        assert err.message.startswith(f"bad scenario file at line {where[0]}, "
                                      f"column {where[1]}: ")


def nested(depth: int) -> str:
    return "name: x\nsteps: " + "[" * depth + "]" * depth + "\n"


LIMIT = scenario_module._MAX_DEPTH


# (text, 0-based line and column of the "[" one level past the limit); the
# root mapping is a level, so on a `steps:` line that is the LIMIT-th "["
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("text, line, column", [
    (nested(40000), 1, len("steps: ") + LIMIT - 1),
    ("name: x\nsteps: " + "[" * 40000 + "\n", 1, len("steps: ") + LIMIT - 1),  # never closed
], ids=["plain", "unclosed"])
def test_nesting_past_the_limit_is_a_composer_error(base, text, line, column):
    """The walk is the loader's composer; like PyYAML's composer errors,
    its refusal is a marked YAML error."""
    with pytest.raises(scenario_module._NotInSubset) as err:
        yaml.load(text, Loader=base[0])
    assert err.value.problem == f"nesting deeper than {LIMIT} levels"
    assert (err.value.problem_mark.line, err.value.problem_mark.column) == (line, column)


@pytest.mark.parametrize("base", BASES)
def test_nesting_at_the_limit_loads(base):
    walk = base[0]
    assert outcome(walk, nested(LIMIT - 1)) == outcome(Reference, nested(LIMIT - 1))
    tree = yaml.load("[" * LIMIT + "]" * LIMIT, Loader=walk)
    for _ in range(LIMIT - 1):
        tree = tree[0]
    assert tree == []
