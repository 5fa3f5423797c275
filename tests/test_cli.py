"""CLI error handling, a repeated run's bytes and the package's import boundaries.

The boundary checks run in fresh processes, so that nothing an earlier test
imported hides a module that `import greendecay` or a CLI command loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import greendecay as gd
from greendecay.cli import main as cli_main

TRIDIAGONAL_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "3 3 7\n1 1 4.0\n2 1 -1.0\n1 2 -1.0\n2 2 4.0\n3 2 -1.0\n2 3 -1.0\n3 3 4.0\n"
)


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args``, importing this greendecay, at one BLAS thread."""
    src = str(Path(gd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_fresh(code: str, *args: str) -> list:
    """Run ``code`` with ``args`` as sys.argv[1:] in a new interpreter; its JSON output."""
    proc = fresh("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_AFTER_CLI = """
import json, sys
from greendecay import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("greendecay") or m == "fractions")
print(json.dumps([code, loaded]))
"""


class TestDirectoryPaths:
    def test_bounds_on_a_directory(self, tmp_path, capsys):
        assert cli_main(["bounds", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err

    def test_run_out_a_directory(self, tmp_path, capsys):
        assert cli_main(["run", "ex1a", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


class TestModuleAsScript:
    def test_python_m_passes_on_the_exit_code(self, tmp_path):
        # a zero diagonal entry fails dominance: exit 2, as `greendecay bounds`
        path = tmp_path / "zero.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n3 3 1.0\n")
        proc = fresh("-m", "greendecay.cli", "bounds", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.splitlines()[-1] == (
            "zero diagonal entry at k=2; dominance undefined; decay bounds not applicable"
        )

    def test_a_repeated_run_writes_the_same_bytes(self, tmp_path):
        # unless PYTHONHASHSEED fixes it, each interpreter draws its own
        # string hash seed, so an order that hashing decides would differ
        csvs = [tmp_path / "ex4a.csv", tmp_path / "ex4a-again.csv"]
        for csv in csvs:
            proc = fresh("-W", "error", "-m", "greendecay.cli", "run", "ex4a", "--seed", "7",
                         "--out", str(csv))
            assert proc.returncode == 0, proc.stderr
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


class TestImportBoundaries:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = run_fresh(
            "import json, sys, greendecay\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('greendecay') or m == 'numpy')))"
        )
        assert loaded == ["greendecay"]

    def test_run_loads_only_what_it_runs(self, tmp_path):
        out = tmp_path / "ex1a.csv"
        code, loaded = run_fresh(LOADED_AFTER_CLI, "run", "ex1a", "--out", str(out))
        assert code == 0 and out.is_file()
        assert loaded == [
            "greendecay",
            "greendecay.banded",
            "greendecay.bounds",
            "greendecay.cli",
            "greendecay.errors",
            "greendecay.experiments",
            "greendecay.oracle",
        ]

    def test_bounds_loads_only_what_it_runs(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(TRIDIAGONAL_MTX)
        code, loaded = run_fresh(LOADED_AFTER_CLI, "bounds", str(path))
        assert code == 0
        assert loaded == [
            "greendecay",
            "greendecay.banded",
            "greendecay.bounds",
            "greendecay.cli",
            "greendecay.errors",
        ]

    def test_verify_loads_no_experiments(self):
        code, loaded = run_fresh(LOADED_AFTER_CLI, "verify", "--trials", "1")
        assert code == 0
        assert "greendecay.verify" in loaded and "greendecay.experiments" not in loaded

    def test_every_public_name_is_its_modules_object(self):
        # from a fresh process, so every name goes through the lazy lookup
        bad = run_fresh(
            """
import importlib, json
import greendecay as gd
star = {}
exec("from greendecay import *", star)
bad = sorted(set(gd.__all__) ^ (star.keys() - {"__builtins__"}))
for name in gd.__all__:
    module = importlib.import_module(f"greendecay.{gd._ORIGIN[name]}")
    obj = getattr(module, name)
    home = getattr(obj, "__module__", module.__name__)
    if (star.get(name) is not obj or getattr(gd, name) is not obj
            or home != module.__name__ or name not in getattr(module, "__all__", [name])):
        bad.append(name)
for module in {importlib.import_module(f"greendecay.{m}") for m in gd._ORIGIN.values()}:
    bad += sorted(set(getattr(module, "__all__", ())) - set(gd.__all__))
print(json.dumps(bad))
"""
        )
        assert bad == []

    def test_dir_unknown_names_and_submodules(self):
        listed, unknown, loaded, submodule = run_fresh(
            """
import json, sys
import greendecay as gd
listed = set(gd.__all__) <= set(dir(gd)) and {"lu", "cli"} <= set(dir(gd))
try:
    gd.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
loaded = sorted(m for m in sys.modules if m.startswith("greendecay"))
submodule = gd.lu is sys.modules["greendecay.lu"]
print(json.dumps([listed, unknown, loaded, submodule]))
"""
        )
        assert listed
        assert unknown == "module 'greendecay' has no attribute 'no_such_name'"
        assert loaded == ["greendecay"]
        assert submodule
