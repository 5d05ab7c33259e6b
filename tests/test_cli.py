import json
from fractions import Fraction

import pytest

from multconv import universality
from multconv.cli import main
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
