import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from multconv import cli, universality
from multconv.cli import main
from multconv.harness import gen_interfering_measure, gen_measure, gen_sphere_measure
from multconv.lifting import lift
from multconv.measures import Measure, mconv, sigma0
from multconv.sphere import SphereMeasure, radial_project
from multconv.subsets import SubsetMask
from multconv.zonoids import Zonotope

F = Fraction


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def dirac(*coords):
    return Measure.dirac([F(c) for c in coords]).to_json()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convolve_diracs(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", dirac(2, -1))
    b = write_json(tmp_path / "b.json", dirac(3, 3))
    code, out, _ = run(capsys, "convolve", a, b)
    assert code == 0
    assert Measure.from_json(json.loads(out)) == Measure.dirac([F(6), F(-3)])


def test_convolve_sphere_flag(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", dirac(3, 4))
    b = write_json(tmp_path / "b.json", dirac(1, 1))
    code, out, _ = run(capsys, "convolve", a, b, "--sphere")
    assert code == 0
    result = SphereMeasure.from_json(json.loads(out))
    assert result == radial_project(Measure.dirac([F(3), F(4)]))


def test_project_subcommand(tmp_path, capsys):
    mu = Measure.dirac([F(1), F(2), F(3)])
    path = write_json(tmp_path / "m.json", mu.to_json())
    code, out, _ = run(capsys, "project", path, "--E", "1,3")
    assert code == 0
    assert Measure.from_json(json.loads(out)) == Measure.dirac([F(1), F(0), F(3)])


def test_decompose_subcommand(tmp_path, capsys):
    mu = Measure.dirac([F(1), F(0)]) + Measure.dirac([F(1), F(1)])
    path = write_json(tmp_path / "m.json", mu.to_json())
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["order"] is None
    assert len(payload["components"]) == 2


def test_symmetrize_subcommand(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", dirac(1, 1))
    code, out, _ = run(capsys, "symmetrize", path, "--evens", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetry"]["proper"] is True
    assert payload["symmetry"]["evens"] == [[], [1, 2]]
    result = Measure.from_json(payload["result"])
    expected = (Measure.dirac([F(1), F(1)]) + Measure.dirac([F(-1), F(-1)])) * F(1, 2)
    assert result == expected


def test_symmetrize_explicit_empty_odd_set(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", dirac(1, 1))
    code, out, _ = run(capsys, "symmetrize", path, "--odds", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetry"]["proper"] is False
    assert Measure.from_json(payload["result"]).is_zero()


def test_symmetrize_refuses_group_beyond_rank_bound(tmp_path, capsys):
    # 30 independent reflections would generate 2**30 group members
    a = write_json(tmp_path / "a.json", dirac(*[1] * 30))
    code, out, err = run(capsys, "symmetrize", a, "--evens", ";".join(map(str, range(1, 31))))
    assert code == 2
    assert not out
    assert "rank 30 exceeds the enumeration bound 16" in err


def test_lift_round_trip_via_cli(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", dirac(1, -2))
    code, out, _ = run(capsys, "lift", path)
    assert code == 0
    lifted = json.loads(out)
    lifted_path = write_json(tmp_path / "lifted.json", lifted)
    code, out, _ = run(capsys, "lift-inverse", lifted_path)
    assert code == 0
    assert Measure.from_json(json.loads(out)) == Measure.dirac([F(1), F(-2)])


def test_universal_exit_codes(tmp_path, capsys):
    good = write_json(tmp_path / "s.json", sigma0(3).to_json())
    code, out, _ = run(capsys, "universal", good, "--support", "top")
    assert code == 0
    assert json.loads(out)["universal"] is True

    pm = Measure.dirac([F(1)]) + Measure.dirac([F(-1)])
    bad = write_json(tmp_path / "pm.json", pm.to_json())
    code, out, _ = run(capsys, "universal", bad, "--support", "top")
    assert code == 3
    payload = json.loads(out)
    assert payload["universal"] is False
    assert payload["witness"] is not None
    # the same input with the even symmetry prescribed becomes universal
    code, out, _ = run(capsys, "universal", bad, "--support", "top", "--evens", "1")
    assert code == 0


def test_universal_with_support_list(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sigma0(2).to_json())
    code, out, _ = run(capsys, "universal", path, "--support", "1,2;1")
    assert code == 3
    payload = json.loads(out)
    # the projection onto {1} of the alternating grid vanishes
    assert any(c["E"] == [1] and not c["ok"] for c in payload["conditions"])


def test_universal_sphere(tmp_path, capsys):
    nu = radial_project(sigma0(2))
    path = write_json(tmp_path / "s.json", nu.to_json())
    code, out, _ = run(capsys, "universal", path, "--support", "top", "--sphere")
    assert code == 0


def test_universal_default_support_is_the_whole_space(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sigma0(2).to_json())
    code, out, _ = run(capsys, "universal", path)
    assert code == 3
    explicit = run(capsys, "universal", path, "--support", "all")
    assert (code, out) == explicit[:2]
    assert {tuple(c["E"]) for c in json.loads(out)["conditions"]} == {(1, 2), (1,), (2,), ()}


def test_project_sphere_flag_on_point_file(tmp_path, capsys):
    mu = Measure.dirac([F(3), F(4)]) + Measure.dirac([F(-1), F(2)])
    path = write_json(tmp_path / "m.json", mu.to_json())
    code, out, _ = run(capsys, "project", path, "--E", "2", "--sphere")
    assert code == 0
    e = SubsetMask.single(2, 2)
    assert SphereMeasure.from_json(json.loads(out)) == radial_project(mu).project(e)


@pytest.mark.parametrize(
    "argv, sphere, message",
    [
        (["universal", "--sphere"], False, "--sphere requires a sphere measure input"),
        (["lift"], True, "lift expects a point measure"),
        (["lift-inverse"], False, "lift-inverse expects a sphere measure"),
        (["project", "--E", "1,3"], False, "bad subset '1,3'"),
    ],
    ids=["universal-sphere-on-points", "lift-on-sphere", "lift-inverse-on-points", "bad-subset"],
)
def test_wrong_setting_or_subset_exits_2(tmp_path, capsys, argv, sphere, message):
    mu = Measure.dirac([F(1), F(2)])
    path = write_json(tmp_path / "m.json", (radial_project(mu) if sphere else mu).to_json())
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert not out
    assert message in err


def test_zonoid_checks(tmp_path, capsys):
    cube = write_json(tmp_path / "cube.json", Zonotope.cube(2).to_json())
    code, out, _ = run(capsys, "zonoid", cube, "--check", "d-universal")
    assert code == 0
    assert json.loads(out)["result"] is False
    code, out, _ = run(capsys, "zonoid", cube, "--check", "singleton-support")
    assert code == 0
    assert json.loads(out)["result"] is False


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "banach-norm", "--seed", "1", "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["trials"] == 5


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert not out
    assert "unknown suite" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_refuses_no_trials(capsys, trials):
    # no trial run is no evidence, not a pass
    code, out, err = run(capsys, "verify", "--suite", "field-laws", "--trials", trials)
    assert code == 2
    assert not out
    assert "trials" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "convolve", str(bad), str(bad))
    assert code == 2
    assert not out


def test_dimension_mismatch_exits_2(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", dirac(1))
    b = write_json(tmp_path / "b.json", dirac(1, 1))
    code, out, err = run(capsys, "convolve", a, b)
    assert code == 2
    assert not out


def test_output_round_trips(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", sigma0(2).to_json())
    b = write_json(tmp_path / "b.json", dirac(1, 1))
    code, out, _ = run(capsys, "convolve", a, b)
    assert code == 0
    parsed = Measure.from_json(json.loads(out))
    assert parsed == mconv(sigma0(2), Measure.dirac([F(1), F(1)]))


def test_pretty_format(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", dirac(1))
    code, out, _ = run(capsys, "--format", "pretty", "decompose", path)
    assert code == 0
    assert "\n  " in out
    assert json.loads(out)["degree"] == 1


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["decompose"], {"dim": 2, "atoms": [{"ray": [1.5, 2], "weight": [["1", 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2, "generators": [["1", "1/0"]]}),
        (["decompose"], {"dim": 2.5, "atoms": [{"point": ["1", "1"], "weight": [["1", 1]]}]}),
        (["decompose"], {"dim": True, "atoms": [{"point": ["1"], "weight": [["1", 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2.5, "generators": [["1", "1"]]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": "12", "weight": [["1", 1]]}]}),
        (["decompose"], {"dim": 2, "atoms": [{"ray": "12", "weight": [["1", 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2, "generators": ["12"]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 2.5]]}]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [[0.1, 1]]}]}),
        (["universal"], {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", True]]}]}),
        (["decompose"], {"dim": 2, "atoms": [{"ray": [1, 1], "weight": [[True, 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2, "generators": [["1", 1.5]]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": [True, "1"], "weight": [["1", 1]]}]}),
        (["decompose"], {"dim": 2, "atoms": [{"ray": [1, True], "weight": [["1", 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2, "generators": [[True, "1"]]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1e5", "1"], "weight": [["1", 1]]}]}),
        (["zonoid", "--check", "d-universal"], {"dim": 2, "generators": [["1", "1E5"]]}),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1e5", 1]]}]}),
    ],
    ids=[
        "float-ray",
        "zero-denominator-generator",
        "float-dim",
        "bool-dim",
        "float-dim-zonotope",
        "string-point",
        "string-ray",
        "string-generator",
        "float-radicand",
        "float-coefficient",
        "bool-radicand",
        "bool-coefficient",
        "float-generator",
        "bool-point",
        "bool-ray",
        "bool-generator",
        "exponent-point",
        "exponent-generator",
        "exponent-coefficient",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, payload):
    path = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert not out
    assert "bad.json" in err


@pytest.mark.parametrize(
    "argv, payload, field",
    [
        # the first atom makes this a sphere measure, so every atom needs a ray
        (["decompose"], {"dim": 2, "atoms": [{"ray": [1, 1], "weight": [["1", 1]]},
                                             {"point": ["1", "2"], "weight": [["1", 1]]}]}, "ray"),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 1]]},
                                             {"ray": [1, 2], "weight": [["1", 1]]}]}, "point"),
        (["decompose"], {"atoms": [{"point": ["1", "1"], "weight": [["1", 1]]}]}, "dim"),
        (["decompose"], {"dim": 2, "atoms": [{"point": ["1", "1"]}]}, "weight"),
        (["decompose"], {"dim": 2, "atoms": [{"ray": [1, 1]}]}, "weight"),
        (["zonoid", "--check", "d-universal"], {"generators": [["1", "1"]]}, "dim"),
    ],
    ids=["ray", "point", "dim", "point-weight", "ray-weight", "zonotope-dim"],
)
def test_missing_field_is_named(tmp_path, capsys, argv, payload, field):
    path = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    kind = "zonotope" if argv[0] == "zonoid" else "measure"
    assert (code, out, err) == (2, "", f"error: malformed {kind} in {path}: missing field '{field}'\n")


def test_zonoid_without_generators_exits_2(tmp_path, capsys):
    # a measure file is not a zonotope, not the empty zonotope
    path = write_json(tmp_path / "m.json", {"dim": 2, "atoms": []})
    code, out, err = run(capsys, "zonoid", path, "--check", "d-universal")
    assert code == 2
    assert not out
    assert "generators" in err


def test_universal_dimension_bound_checked_before_enumeration(tmp_path, capsys, monkeypatch):
    def enumerate_all(dim):
        raise AssertionError(f"enumerated all 2**{dim} support sets")

    monkeypatch.setattr(universality, "all_subsets", enumerate_all)
    path = write_json(tmp_path / "m.json", {"dim": 18, "atoms": []})
    code, out, err = run(capsys, "universal", path, "--support", "all")
    assert code == 2
    assert not out
    assert "dimension 18 exceeds the enumeration bound 8" in err


@pytest.mark.parametrize("check", ["d-universal", "unc-d-universal"])
def test_zonoid_dimension_bound_checked_before_enumeration(tmp_path, capsys, monkeypatch, check):
    def enumerate_all(dim):
        raise AssertionError(f"enumerated all 2**{dim} support sets")

    monkeypatch.setattr(universality, "all_subsets", enumerate_all)
    generator = ["1"] * 16
    path = write_json(tmp_path / "z.json", {"dim": 16, "generators": [generator]})
    code, out, err = run(capsys, "zonoid", path, "--check", check)
    assert code == 2
    assert not out
    assert "dimension 16 exceeds the enumeration bound 8" in err


def test_main_keeps_no_state_between_requests(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", dirac(2, -1))
    b = write_json(tmp_path / "b.json", dirac(3, 3))
    requests = [
        ["--format", "pretty", "decompose", a],
        ["decompose", a],
        ["convolve", a, b, "--sphere"],
        ["convolve", a, b],
        ["project", a],  # exits 2: --E is required
        ["project", a, "--E", "1"],
        ["frobnicate"],
        ["universal", a],
    ]
    expected = [run(capsys, *argv) for argv in requests]
    # the same requests again, in order and in reverse
    for order in (requests, requests[::-1]):
        for argv in order:
            assert run(capsys, *argv) == expected[requests.index(argv)], argv
    # the pretty request did not stick, nor did --sphere or the exits
    assert expected[1][1] == json.dumps(json.loads(expected[1][1]), separators=(",", ":")) + "\n"
    assert "point" in expected[3][1]
    assert expected[4][0] == 2 and expected[6][0] == 2 and expected[5][0] == 0


def reference_parser() -> argparse.ArgumentParser:
    """The argparse tree that read the cli's argv before the command table,
    declaration for declaration: the oracle of ``cli.parse_args``."""
    parser = argparse.ArgumentParser(
        prog="multconv",
        description="exact multiplicative-convolution algebra of atomic measures",
    )
    parser.add_argument(
        "--format", choices=("pretty", "json"), default="json", help="output style"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convolve", help="convolve two measures")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--sphere", action="store_true", help="use the sphere product")
    p.set_defaults(func=cli._cmd_convolve)

    p = sub.add_parser("project", help="project onto a coordinate subspace or subsphere")
    p.add_argument("input")
    p.add_argument("--E", required=True, help="1-based comma list; 0 means the empty set")
    p.add_argument("--sphere", action="store_true")
    p.set_defaults(func=cli._cmd_project)

    p = sub.add_parser("decompose", help="coordinate decomposition with order and degree")
    p.add_argument("input")
    p.set_defaults(func=cli._cmd_decompose)

    p = sub.add_parser("symmetrize", help="apply the even/odd symmetrisation of a pair")
    p.add_argument("input")
    p.add_argument("--evens", default=None, help="semicolon-separated subsets")
    p.add_argument("--odds", default=None, help="semicolon-separated subsets")
    p.set_defaults(func=cli._cmd_symmetrize)

    p = sub.add_parser("lift", help="lift a point measure to a symmetric sphere measure")
    p.add_argument("input")
    p.set_defaults(func=cli._cmd_lift)

    p = sub.add_parser("lift-inverse", help="invert the lift")
    p.add_argument("input")
    p.set_defaults(func=cli._cmd_lift_inverse)

    p = sub.add_parser("universal", help="decide universality; exit 0 universal, 3 not")
    p.add_argument("input")
    p.add_argument("--evens", default=None)
    p.add_argument("--odds", default=None)
    p.add_argument("--support", default="all", help="all, top, or semicolon-separated subsets")
    p.add_argument("--sphere", action="store_true")
    p.set_defaults(func=cli._cmd_universal)

    p = sub.add_parser("zonoid", help="checks on a zonotope's generating measure")
    p.add_argument("input")
    p.add_argument(
        "--check",
        choices=("d-universal", "unc-d-universal", "singleton-support"),
        required=True,
    )
    p.set_defaults(func=cli._cmd_zonoid)

    p = sub.add_parser("verify", help="run a property suite; exit 0 iff it passes")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cli._cmd_verify)

    return parser


REFERENCE = reference_parser()


def reference_read(argv):
    """The reference's fields for ``argv`` (the handler checked against the
    table's and dropped), or its exit code with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    fields = vars(ns)
    assert fields.pop("func") is cli.COMMANDS[ns.command].handler
    return fields


# values that argparse reads as values in both spellings (a negative number,
# a word with a space), and more that only follow an "=" or a "--"
VALUES = ["1", "1,2", "0", "1;2,3", "all", "top", "-1", "-2.5", "a b", "x"]
AFTER_EQUALS = VALUES + ["-x", "--sphere", "", "-h"]
FILES = ["a.json", "m.json", "-3", "-", "x y.json"]
AFTER_DASHES = FILES + ["-a.json", "--sphere", "-h"]


def _spellings(name: str, names) -> list[str]:
    """``name`` and each of its prefixes that no other option name of
    ``names`` (``--help`` among them) begins with."""
    return [name[:k] for k in range(3, len(name) + 1) if not any(o.startswith(name[:k]) for o in names if o != name)]


def _spell(rng, name: str, option, names) -> list[str]:
    word = rng.choice(_spellings(name, names))
    if option.kind == "flag":
        return [word]
    if option.choices:
        value = rng.choice(option.choices)
    elif option.kind == "int":
        value = str(rng.randrange(-20, 200))
    else:
        value = rng.choice(VALUES)
    if rng.random() < 0.3:
        return [f"{word}={rng.choice(AFTER_EQUALS) if option.kind == 'text' and not option.choices else value}"]
    return [word, value]


def valid_argv(rng) -> list[str]:
    """A request the reference accepts: ``--format`` zero to two times
    (the last wins), then a command whose options, each given zero to two
    times (required ones at least once), in any spelling (``=`` or not, a
    unique prefix), sit before, between or after its positionals, with a
    ``--`` before the positionals after the last option now and then."""
    words = []
    for _ in range(rng.randrange(3)):
        words += _spell(rng, "--format", cli.GLOBAL_OPTIONS["--format"], ("--help", "--format"))
    name = rng.choice(list(cli.COMMANDS))
    command = cli.COMMANDS[name]
    names = ("--help", *command.options)
    options = []
    for opt, option in command.options.items():
        for _ in range(option.required + rng.randrange(2) + (rng.random() < 0.2)):
            options.append(_spell(rng, opt, option, names))
    slots = [[] for _ in range(len(command.positionals) + 1)]
    for spelled in options:
        slots[rng.randrange(len(slots))].append(spelled)
    last = max([k for k, slot in enumerate(slots) if slot], default=0)
    dashes = last < len(command.positionals) and rng.random() < 0.4
    words.append(name)
    for k, slot in enumerate(slots):
        for spelled in slot:
            words += spelled
        if k == last and dashes:
            words.append("--")
        if k < len(command.positionals):
            words.append(rng.choice(AFTER_DASHES if dashes and k >= last else FILES))
    return words


def test_parse_args_reads_what_argparse_reads():
    rng = random.Random(11)
    commands = set()
    for _ in range(3000):
        argv = valid_argv(rng)
        want = reference_read(argv)
        assert isinstance(want, dict), (argv, want)
        got = cli.parse_args(argv)
        assert isinstance(got, cli.SimpleNamespace), argv
        assert vars(got) == want, argv
        commands.add(want["command"])
    assert commands == set(cli.COMMANDS)


def malformed_argv(rng):
    """``(kind, argv)`` pairs that the reference refuses, for every command."""
    for name, command in cli.COMMANDS.items():
        files = [rng.choice(FILES) for _ in command.positionals]
        required = []
        for opt, option in command.options.items():
            if option.required:
                required += [opt, option.choices[0] if option.choices else "1"]
        good = [name, *files, *required]
        yield "unknown-command", [rng.choice(["frobnicate", "Convolve", "lift_inverse", "-1"]), *good[1:]]
        yield "unknown-option", good + [rng.choice(["--bogus", "-x", "--bogus=1", "--format"])]
        yield "format-after-command", good + ["--format", rng.choice(["json", "pretty"])]
        yield "format-after-command", [name, "--format=json", *good[1:]]
        yield "extra-positional", good + ["extra.json"]
        yield "bad-format", ["--format", "yaml", *good]
        if files:
            yield "missing-positional", [name, *files[:-1], *required]
        for k in range(0, len(required), 2):
            yield "missing-option", good[:len(good) - len(required)] + required[:k] + required[k + 2:]
            yield "option-without-value", good[:-1]
            yield "option-without-value", good[:-1] + ["--help" if len(command.options) == 1 else "--sphere"]
        for opt, option in command.options.items():
            if option.choices:
                yield "bad-choice", good + [opt, "nope"]
            if option.kind == "int":
                yield "non-int", good + [f"{opt}={rng.choice(['x', '1.5', '-1.5', '0x10'])}"]
                yield "non-int", good + [opt, "seven"]
            if option.kind == "flag":
                yield "flag-with-value", good + [f"{opt}=1"]
        shared = [p for p in ("--s", "--e", "--o") if sum(o.startswith(p) for o in command.options) > 1]
        for prefix in shared:
            yield "ambiguous-option", good + [prefix, "1"]
    yield "no-command", []
    yield "no-command", ["--format", "pretty"]
    yield "option-without-value", ["--format"]
    yield "option-without-value", ["--format", "--", "decompose", "a.json"]


def test_parse_args_refuses_what_argparse_refuses(capsys):
    rng = random.Random(11)
    kinds = set()
    for kind, argv in malformed_argv(rng):
        code, out, _ = reference_read(argv)
        assert (code, out) == (2, ""), (kind, argv)
        got, out, err = run(capsys, *argv)
        assert (got, out) == (2, ""), (kind, argv)
        lines = err.splitlines()
        assert lines[0].startswith("usage: multconv") and lines[-1].startswith("multconv: error: "), (kind, argv)
        kinds.add(kind)
    assert {"unknown-command", "missing-positional", "missing-option", "bad-choice", "non-int", "unknown-option",
            "ambiguous-option", "extra-positional", "option-without-value", "format-after-command"} <= kinds


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_command_and_option(capsys, monkeypatch, flag):
    for argv in ([flag], ["--format", "pretty", flag, "frobnicate"]):
        assert reference_read(argv)[0] == 0
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: multconv") and "--format" in out
        assert all(name in out for name in cli.COMMANDS)
    for name, command in cli.COMMANDS.items():
        for argv in ([name, flag], [name, "--bogus", flag, "extra"]):
            assert reference_read(argv)[0] == 0, argv
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith(f"usage: multconv {name}")
            assert all(word in out for word in [*command.positionals, *command.options, "--help"])
    # without argv, main reads the process's
    monkeypatch.setattr(sys, "argv", ["multconv", "verify", flag])
    assert main() == 0
    assert "--trials" in capsys.readouterr().out


def test_cli_reads_argv_without_argparse():
    assert "argparse" not in vars(cli)
    assert not hasattr(cli, "build_parser")


def test_known_escapes_still_escape_main(tmp_path, capsys):
    # pinned by the benchmark's committed cli digests: a zero denominator in a
    # point and a top-level JSON list raise out of ``main`` rather than exit 2
    one = {"point": ["1", "1", "1"], "weight": [["1", 1]]}
    bad = write_json(tmp_path / "bad.json", {"dim": 3, "atoms": [one, {"point": ["1/0", "1", "2"], "weight": [["1", 1]]}]})
    with pytest.raises(ZeroDivisionError):
        main(["universal", bad])
    top = write_json(tmp_path / "top.json", [one])
    with pytest.raises(AttributeError):
        main(["decompose", top])


def test_entry_point_in_a_fresh_process_matches_main(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", sigma0(2).to_json())
    b = write_json(tmp_path / "b.json", dirac("1/2", 3))
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "atoms": [')
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["convolve", a, b], ["--format", "pretty", "decompose", a], ["project", str(bad), "--E", "1"]):
        proc = subprocess.run([sys.executable, "-m", "multconv.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


def _battery(tmp_path):
    """Every command that writes a measure or a report, on seeded inputs of
    both settings (a negative decision among them, with its witness): named
    argument lists over files in ``tmp_path``."""
    n = 3
    a = gen_measure(3, n, 6)
    interfering = gen_interfering_measure(5, n, 6)
    files = {
        "a": a.to_json(),
        "b": gen_measure(4, n, 5).to_json(),
        "s": gen_sphere_measure(5, n, 5).to_json(),
        "l": lift(a).to_json(),
        "f": interfering.to_json(),
        "fs": radial_project(interfering).to_json(),
        "z": {"dim": n, "generators": [["1", "2", "0"], ["-1", "1/2", "3"], ["0", "1", "1"]]},
    }
    path = {name: write_json(tmp_path / f"{name}.json", payload) for name, payload in files.items()}
    requests = [
        ["convolve", path["a"], path["b"]],
        ["convolve", path["a"], path["b"], "--sphere"],
        ["convolve", path["s"], path["s"]],
        ["project", path["a"], "--E", "1,3"],
        ["project", path["a"], "--E", "2,3", "--sphere"],
        ["project", path["s"], "--E", "1,2"],
        ["decompose", path["a"]],
        ["decompose", path["s"]],
        ["symmetrize", path["a"], "--evens", "1,2", "--odds", "3"],
        ["symmetrize", path["s"], "--evens", "1"],
        ["lift", path["a"]],
        ["lift-inverse", path["l"]],
        ["universal", path["a"]],
        ["universal", path["s"], "--sphere"],
        ["universal", path["f"], "--evens", "1,2,3"],
        ["universal", path["fs"], "--evens", "1,2,3", "--support", "1,2,3;1;2,3"],
        ["zonoid", path["z"], "--check", "d-universal"],
        ["zonoid", path["z"], "--check", "unc-d-universal"],
        ["zonoid", path["z"], "--check", "singleton-support"],
        ["verify", "--suite", "field-laws", "--seed", "1", "--trials", "2"],
    ]
    return [(" ".join(argv).replace(str(tmp_path) + os.sep, ""), argv) for argv in requests]


# the SHA-256 (first 16 hex digits) of each request's stdout as written
# through ``json.dumps`` of the ``to_json()`` dicts, before the text writers
WRITTEN_BY_JSON_DUMPS = {
    "json": {
        "convolve a.json b.json": "b51f218f91910f18",
        "convolve a.json b.json --sphere": "4b5788a2dd06e599",
        "convolve s.json s.json": "42592b08a3e4b005",
        "project a.json --E 1,3": "2434f5cf802a2d2a",
        "project a.json --E 2,3 --sphere": "c04558142f3f5d18",
        "project s.json --E 1,2": "6eb5a595edd67355",
        "decompose a.json": "4d7e165b0f8e8f83",
        "decompose s.json": "cadc3507499f427f",
        "symmetrize a.json --evens 1,2 --odds 3": "396d15616720f337",
        "symmetrize s.json --evens 1": "652e6b6723502bc8",
        "lift a.json": "e63561a207cb13a2",
        "lift-inverse l.json": "c9c8293f7e344753",
        "universal a.json": "eaee71b91e052a54",
        "universal s.json --sphere": "8169dc2545fc9c67",
        "universal f.json --evens 1,2,3": "655d54693b2db3d7",
        "universal fs.json --evens 1,2,3 --support 1,2,3;1;2,3": "e6d9703c62c500dc",
        "zonoid z.json --check d-universal": "46301a8162561525",
        "zonoid z.json --check unc-d-universal": "f58cf846c7e8f452",
        "zonoid z.json --check singleton-support": "4ce4eecc94afabd5",
        "verify --suite field-laws --seed 1 --trials 2": "4f4c791056aae49f",
    },
    "pretty": {
        "convolve a.json b.json": "529f45aef7aaa86c",
        "convolve a.json b.json --sphere": "7ab84f1f5ab50e4c",
        "convolve s.json s.json": "1e98d872db781edb",
        "project a.json --E 1,3": "006da7c12cffaddc",
        "project a.json --E 2,3 --sphere": "87be9071449f88ae",
        "project s.json --E 1,2": "e983c25cecde258e",
        "decompose a.json": "209fbfab793cb645",
        "decompose s.json": "c4a1778750df18e3",
        "symmetrize a.json --evens 1,2 --odds 3": "4b5adf730447315c",
        "symmetrize s.json --evens 1": "524cfd589a8d1b48",
        "lift a.json": "107b1ca947f74cd2",
        "lift-inverse l.json": "cd08bd1dd111dad0",
        "universal a.json": "9655992ea663ac20",
        "universal s.json --sphere": "520c3bfb53c4bb73",
        "universal f.json --evens 1,2,3": "9b46166b98d63ccc",
        "universal fs.json --evens 1,2,3 --support 1,2,3;1;2,3": "83d62df306ea6c48",
        "zonoid z.json --check d-universal": "c37ca680e6881222",
        "zonoid z.json --check unc-d-universal": "37da495993e3d237",
        "zonoid z.json --check singleton-support": "09e6673fbac9b35a",
        "verify --suite field-laws --seed 1 --trials 2": "5b04b0d375890d61",
    },
}


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_every_command_writes_the_bytes_of_json_dumps(tmp_path, capsys, fmt):
    written = {}
    for name, argv in _battery(tmp_path):
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code in (0, 3) and not err, name
        written[name] = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert written == WRITTEN_BY_JSON_DUMPS[fmt]


def test_text_writers_give_the_bytes_of_the_dict_route(tmp_path, capsys, monkeypatch):
    # the same requests with every payload dumped from its ``to_json()`` dicts
    battery = _battery(tmp_path)
    direct = [run(capsys, *argv) for _, argv in battery]
    dicts = lambda payload: json.dumps(payload, separators=(",", ":"), default=lambda obj: obj.to_json())  # noqa: E731
    monkeypatch.setattr(cli, "_compact", dicts)
    assert [run(capsys, *argv) for _, argv in battery] == direct
    assert any(code == 3 for code, _, _ in direct)
