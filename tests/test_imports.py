"""What each entry point loads: `import multconv` and the core modules
leave the zonoid layer and the property suites unloaded until first use.

Each check runs in a fresh interpreter, since the test process has loaded
every module already."""

import json
import os
import subprocess
import sys

import pytest

import multconv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(multconv.__file__)))

# the names `multconv` resolves on first access, by the module that defines them
LAZY = {
    "zonoids": ("Zonotope", "decide_d_universal", "generating_measure", "k_transform", "k_transform_direct",
                "singleton_support_check", "support_function"),
    "harness": ("brute_force_convolution", "gen_measure", "gen_pair", "gen_sphere_measure", "gen_subgroup",
                "run_property_suite"),
}
CORE = ("scalars", "subsets", "points", "measures", "sphere", "lifting", "universality")


def fresh(code: str):
    """The JSON value a fresh interpreter prints as the last line of ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('multconv'))))"


@pytest.mark.parametrize("module", ["multconv", "multconv.cli", *(f"multconv.{m}" for m in CORE)])
def test_no_core_module_loads_the_zonoids_or_the_suites(module):
    loaded = fresh(f"import json, sys\nimport {module}\n{LOADED}")
    assert module in loaded
    assert "multconv.harness" not in loaded and "multconv.zonoids" not in loaded


def test_cli_requests_load_what_they_run(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 1, "atoms": [{"point": ["1/2"], "weight": [["1", 1]]}]}))
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 2, "generators": [["1", "0"], ["0", "1"]]}))
    script = f"""import contextlib, io, json, sys
from multconv.cli import main
out = []
for argv in (["convolve", {str(path)!r}, {str(path)!r}], ["zonoid", {str(cube)!r}, "--check", "singleton-support"],
             ["verify", "--suite", "field-laws", "--seed", "1", "--trials", "2"]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(argv)
    out.append([argv[0], code, json.loads(text.getvalue()),
                [m for m in ("multconv.zonoids", "multconv.harness") if m in sys.modules]])
print(json.dumps(out))"""
    (convolve, zonoid, verify) = fresh(script)
    assert convolve[:2] == ["convolve", 0] and convolve[3] == []
    assert zonoid == ["zonoid", 0, {"check": "singleton-support", "result": False}, ["multconv.zonoids"]]
    assert verify[:2] == ["verify", 0] and verify[2]["passed"] is True
    assert verify[3] == ["multconv.zonoids", "multconv.harness"]


def test_lazy_names_are_the_submodules_objects():
    pairs = [[module, name] for module, names in LAZY.items() for name in (module, *names)]
    script = f"""import importlib, json, sys
import multconv
out = []
for module, name in {pairs!r}:
    cached = name in vars(multconv)
    value = getattr(multconv, name)
    source = importlib.import_module("multconv." + module)
    out.append([name, cached, value is (source if name == module else getattr(source, name)),
                vars(multconv)[name] is value])
print(json.dumps(out))"""
    for name, cached, same, kept in fresh(script):
        assert not cached and same and kept, name


def test_dir_all_and_star_import_list_every_public_name():
    script = """import json, sys
import multconv
listed = dir(multconv)
loaded = [m for m in ("multconv.zonoids", "multconv.harness") if m in sys.modules]
star = {}
exec("from multconv import *", star)
print(json.dumps([listed, multconv.__all__, sorted(set(star) - {"__builtins__"}), loaded]))"""
    listed, names, star, loaded = fresh(script)
    # listing the names loads nothing; binding them does
    assert loaded == []
    public = {name for name in listed if not name.startswith("_")}
    assert public == set(names) == set(star)
    assert {*CORE, *LAZY, *(name for names in LAZY.values() for name in names)} <= public
    assert {"Measure", "mconv", "decide_universal_rn", "lift", "Surd", "SphereMeasure"} <= public
    assert "cli" not in public and len(names) == len(set(names))


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'multconv' has no attribute 'no_such_name'$"):
        multconv.no_such_name
    assert not hasattr(multconv, "__wrapped__")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from multconv import no_such_name  # noqa: F401
