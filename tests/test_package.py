"""The package namespace and what importing it, or running a CLI command,
loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import parikhgrid
from parikhgrid import covering

SRC = os.path.dirname(os.path.dirname(parikhgrid.__file__))


class TestNamespace:
    def test_each_name_is_the_object_of_its_home_module(self):
        for name in parikhgrid.__all__:
            obj = getattr(parikhgrid, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("parikhgrid."), name
            assert getattr(home, name) is obj, name

    def test_star_import_gives_the_same_objects(self):
        namespace = {}
        exec("from parikhgrid import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(parikhgrid.__all__)
        for name, obj in namespace.items():
            assert obj is getattr(parikhgrid, name), name

    def test_dir_lists_every_name(self):
        listed = dir(parikhgrid)
        assert set(parikhgrid.__all__) <= set(listed)
        assert "__version__" in listed
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            parikhgrid.no_such_name
        assert not hasattr(parikhgrid, "search_pdb")

    def test_rebinding_in_the_home_module_shows_and_restores(self,
                                                             monkeypatch):
        # the package stores no name, so what a tracer or a test rebinds in
        # the home module is what the package gives, before and after
        original = covering.verify
        assert parikhgrid.verify is original
        with monkeypatch.context() as patch:
            patch.setattr(covering, "verify", lambda *args: None)
            assert parikhgrid.verify is covering.verify
            assert parikhgrid.verify is not original
        assert parikhgrid.verify is original
        assert "verify" not in vars(parikhgrid)


def _loaded_by(code):
    """Modules a fresh interpreter loads while it runs ``code``, beyond the
    ones it starts with."""
    script = """
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, code],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _submodules(loaded):
    return {m for m in loaded if m.startswith("parikhgrid.")}


def _cli(*argv):
    return ("import parikhgrid.cli\n"
            "assert parikhgrid.cli.main(%r) == 0" % (list(argv),))


class TestImportFootprint:
    def test_package_loads_no_submodule(self):
        assert _submodules(_loaded_by("import parikhgrid")) == set()

    def test_cli_loads_only_errors(self):
        loaded = _loaded_by("import parikhgrid.cli")
        assert _submodules(loaded) == {"parikhgrid.cli", "parikhgrid.errors"}
        assert not loaded & {"dataclasses", "ctypes"}

    def test_search_loads_neither_walks_realize_nor_fractions(self):
        loaded = _loaded_by(_cli("search", "--k", "3", "--sigma", "3"))
        assert "parikhgrid.search" in loaded
        assert not loaded & {"parikhgrid.walks", "parikhgrid.realize",
                             "fractions"}

    @pytest.mark.parametrize("code", [
        "import parikhgrid.search",
        _cli("search", "--k", "3", "--sigma", "3"),
    ])
    def test_search_loads_no_grid(self, code):
        # the kernel builds its tables itself, not from a grid
        loaded = _loaded_by(code)
        assert "parikhgrid.search" in loaded
        assert "parikhgrid.grid" not in loaded

    def test_kernel_loads_no_other_submodule(self):
        # a search loads the kernel; its tables import what they need
        loaded = _loaded_by("import parikhgrid.kernel")
        assert _submodules(loaded) == {"parikhgrid.kernel"}
        assert not loaded & {"dataclasses", "array"}

    def test_verify_loads_neither_kernel_search_nor_ctypes(self):
        loaded = _loaded_by(_cli("verify", "abbbcccaaabc", "--k", "3",
                                 "--sigma", "3"))
        assert "parikhgrid.covering" in loaded
        assert not loaded & {"parikhgrid.kernel", "parikhgrid.search",
                             "ctypes"}

    def test_walk_loads_no_covering(self):
        loaded = _loaded_by(_cli("walk", "aabacabb", "--k", "4"))
        assert "parikhgrid.walks" in loaded
        assert "parikhgrid.covering" not in loaded

    @pytest.mark.parametrize("argv", [
        ("verify", "abbbcccaaabc", "--k", "3", "--sigma", "3"),
        ("bounds", "--k", "3", "--sigma", "3"),
    ])
    def test_covering_commands_load_no_grid(self, argv):
        loaded = _loaded_by(_cli(*argv))
        assert "parikhgrid.covering" in loaded
        assert "parikhgrid.grid" not in loaded
