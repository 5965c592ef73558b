"""The package's export table: names resolve on first use, in fresh processes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import spinfridge

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "cycles", "compiler", "fridge", "thermo", "linalg", "cooling")


def fresh(code: str):
    """Run code in a fresh interpreter that finds this package first; return
    the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(spinfridge.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(statement: str) -> set[str]:
    """The spinfridge modules, and numpy, in sys.modules after a fresh
    interpreter runs one import statement."""
    return set(fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted("
                     "m for m in sys.modules if m == 'numpy' or m.startswith('spinfridge'))))"))


def test_import_spinfridge_loads_no_module_and_no_numpy():
    assert loaded_by("import spinfridge") == {"spinfridge"}


def test_a_module_loads_only_the_modules_it_imports():
    assert loaded_by("import spinfridge.cooling") == {
        "numpy", "spinfridge", "spinfridge.cooling", "spinfridge.thermo", "spinfridge.linalg"}
    fridge = loaded_by("from spinfridge import carnot_limit")
    assert "spinfridge.fridge" in fridge
    assert not fridge & {"spinfridge.cooling", "spinfridge.compiler", "spinfridge.cycles",
                         "spinfridge.cli"}


def test_the_cli_loads_every_module_the_benchmark_traces():
    # perfbench's tracer reads each traced module from sys.modules when it
    # installs, after importing spinfridge.cli
    assert loaded_by("import spinfridge.cli") >= {f"spinfridge.{name}" for name in MODULES}


def test_the_cli_imports_argparse_csv_and_json_only_where_needed_and_never_queue(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse lays help out at, here and in the child
    # the child imports json last, after every check, to print its report
    report = fresh("""
import contextlib, io, sys
import spinfridge.cli as cli
OPTIONAL = ("argparse", "csv", "json", "queue")

def loaded():
    return [name for name in OPTIONAL if name in sys.modules]

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue(), loaded()]

report = {"traced": sorted(m for m in sys.modules if m.startswith("spinfridge.")),
          "import": loaded(), "never": [m for m in ("dataclasses", "copy") if m in sys.modules],
          "csv": call(["exchange", "--t1=3"]), "bcs": call(["bcs", "--bits=1000000", "--rounds=2"]),
          "json": call(["exchange", "--t1=3", "--format=json"]), "help": call(["cycles", "-h"])}
import json
print(json.dumps(report))
""")
    assert set(report["traced"]) >= {f"spinfridge.{name}" for name in MODULES}
    assert report["import"] == []
    assert report["never"] == []  # no dataclass, so neither module loads with the cli
    import spinfridge.cli as cli

    # no call loads queue, bcs on a pool of several chunks over 2 rounds included
    for key, argv, modules in (("csv", ["exchange", "--t1=3"], []),
                               ("bcs", ["bcs", "--bits=1000000", "--rounds=2"], []),
                               ("json", ["exchange", "--t1=3", "--format=json"], ["json"]),
                               ("help", ["cycles", "-h"], ["argparse", "json"])):
        code, text, now_loaded = report[key]
        assert now_loaded == modules, key
        # the same exit code and bytes as in this process, which has every module
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == code == 0
        assert text == out.getvalue() and text, key


def test_every_exported_name_resolves_in_a_fresh_process():
    # each name read through the package is its module's object, and a star
    # import binds every name
    wrong = fresh("""
import json, sys
import spinfridge
wrong = []
for name in spinfridge.__all__[1:]:
    value = getattr(spinfridge, name)
    module = sys.modules.get(getattr(value, "__module__", ""))
    if not (module and module.__name__.startswith("spinfridge.") and getattr(module, name) is value):
        wrong.append(name)
star = {}
exec("from spinfridge import *", star)
wrong += [name for name in spinfridge.__all__ if name not in star]
print(json.dumps(wrong))
""")
    assert wrong == []


def test_the_export_list_names_each_public_name_once():
    names = spinfridge.__all__
    assert names[0] == "__version__" and len(names) == len(set(names)) == 58
    assert set(names) <= set(dir(spinfridge))
    # each name is written exactly once in the package's source
    words = re.findall(r"\w+", Path(spinfridge.__file__).read_text(encoding="utf-8"))
    assert {name: words.count(name) for name in names[1:] if words.count(name) != 1} == {}


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'spinfridge' has no attribute 'nope'$"):
        spinfridge.nope
    assert not hasattr(spinfridge, "check_theta")  # a module's name that is not exported
    with pytest.raises(ImportError):
        exec("from spinfridge import nope", {})


def test_a_patched_module_attribute_shows_through_the_package():
    original = spinfridge.carnot_limit
    with mock.patch.object(spinfridge.fridge, "carnot_limit") as patched:
        assert spinfridge.carnot_limit is patched
    assert spinfridge.carnot_limit is original
    assert "carnot_limit" not in vars(spinfridge)


def test_the_version_is_the_one_pyproject_declares():
    # a regex on the [project] table, since tomllib is new in Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M)
    assert spinfridge.__version__ == version
