"""Guards for the reachability audit, ``tools/reach.py`` (no user path is run).

The audit itself takes minutes (CI's ``reach`` job); these tests hold
its listing and compare rule, and that ``tools/unreached.txt`` names only
functions that still exist, so a deletion must also update the list.
"""

import importlib.util
import socket
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["reach"]


_FIXTURE = '''\
import functools


def top():
    def inner():
        def deepest():
            pass

    class Local:
        def method(self):
            pass


class Outer:
    @property
    def value(self):
        return 1

    @value.setter
    def value(self, new):
        pass

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cached():
        pass

    async def fetch(self):
        pass

    class Inner:
        def deep(self):
            pass


if True:
    def guarded():
        pass
'''


def _sites_of(source, filename):
    """``(line, name)`` of every function code object compiled from ``source``."""
    found = set()

    def visit(code):
        if code.co_name not in ("<module>", "Outer", "Inner", "Local"):
            found.add((code.co_firstlineno, code.co_name))
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                visit(const)

    visit(compile(source, filename, "exec"))
    return found


class TestListing:
    def test_qualnames_of_methods_nested_async_and_decorated(self, reach, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sub" / "mod.py").write_text(_FIXTURE)
        defs = reach.list_defs(package)
        assert sorted(defs) == sorted(
            f"pkg/sub/mod.py::{name}"
            for name in [
                "top",
                "top.<locals>.inner",
                "top.<locals>.inner.<locals>.deepest",
                "top.<locals>.Local.method",
                "Outer.value",
                "Outer.value#2",
                "Outer.cached",
                "Outer.fetch",
                "Outer.Inner.deep",
                "guarded",
            ]
        )
        assert {site[0] for site in defs.values()} == {"pkg/sub/mod.py"}
        # A def's site is what its code object reports, decorators included.
        assert {site[1:] for site in defs.values()} == _sites_of(_FIXTURE, "mod.py")


class TestCompare:
    DEFS = {
        "repro/a.py::f": ("repro/a.py", 1, "f"),
        "repro/a.py::g": ("repro/a.py", 5, "g"),
        "repro/a.py::h": ("repro/a.py", 9, "h"),
    }

    def test_an_unlisted_unreached_function_fails(self, reach):
        failures, stale = reach.compare(self.DEFS, {("repro/a.py", 1, "f")}, ["repro/a.py::g"])
        assert failures == ["unreached but not listed: repro/a.py::h"]
        assert stale == []

    def test_a_listed_reached_function_only_warns(self, reach):
        reached = {("repro/a.py", 1, "f"), ("repro/a.py", 5, "g")}
        failures, stale = reach.compare(self.DEFS, reached, ["repro/a.py::g", "repro/a.py::h"])
        assert failures == []
        assert stale == ["repro/a.py::g"]

    def test_a_listed_name_that_does_not_exist_fails(self, reach):
        failures, _ = reach.compare(self.DEFS, set(), ["repro/a.py::f", "repro/a.py::g",
                                                       "repro/a.py::h", "repro/a.py::gone"])
        assert failures == ["listed but no such function: repro/a.py::gone"]

    def test_notes_survive_a_rewrite(self, reach, tmp_path):
        listing = tmp_path / "unreached.txt"
        listing.write_text(reach.render_list(["repro/a.py::g", "repro/a.py::h"],
                                             {"repro/a.py::g": "an oracle", "repro/a.py::f": "x"}))
        assert reach.read_list(listing) == {"repro/a.py::g": "an oracle", "repro/a.py::h": ""}


def test_every_listed_function_still_exists(reach):
    listed = reach.read_list(reach.LIST_FILE)
    assert listed, "tools/unreached.txt is empty"
    missing = sorted(set(listed) - set(reach.list_defs(reach.PACKAGE)))
    assert missing == [], "remove these from tools/unreached.txt: " + ", ".join(missing)


@pytest.fixture
def package(reach, tmp_path, monkeypatch):
    """A one-module package ``repro/mod.py`` with an empty list file."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("def f():\n    pass\n")
    listing = tmp_path / "unreached.txt"
    listing.write_text(reach.render_list([], {}))
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "LIST_FILE", listing)
    return package


class TestSourcesStayPut:
    """The audit refuses a run during which a source under the package changed."""

    def test_an_unchanged_tree_is_compared(self, reach, package, monkeypatch):
        monkeypatch.setattr(reach, "run_paths", lambda work: ({("repro/mod.py", 1, "f")}, []))
        assert reach.main([]) == 0

    @pytest.mark.parametrize("argv", [[], ["--write"]])
    def test_an_edit_during_the_run_exits_2_and_writes_nothing(
        self, reach, package, monkeypatch, capsys, argv
    ):
        def edit_then_report(work):
            source = package / "mod.py"
            source.write_text("\n" + source.read_text())
            return {("repro/mod.py", 1, "f")}, []

        monkeypatch.setattr(reach, "run_paths", edit_then_report)
        listed = reach.LIST_FILE.read_text()
        assert reach.main(argv) == 2
        assert "repro/mod.py" in capsys.readouterr().err
        assert reach.LIST_FILE.read_text() == listed


class TestWrite:
    def test_a_timing_entry_stays_while_its_function_exists(
        self, reach, package, monkeypatch
    ):
        (package / "mod.py").write_text(
            "def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n"
        )
        reach.LIST_FILE.write_text(reach.render_list(
            ["repro/mod.py::g", "repro/mod.py::h", "repro/mod.py::gone"],
            {"repro/mod.py::g": "timing: a slow dial", "repro/mod.py::h": "an oracle",
             "repro/mod.py::gone": "timing: deleted since"},
        ))  # fmt: skip
        # This run reached all three: only the timing entry that exists stays.
        reached = {("repro/mod.py", 1, "f"), ("repro/mod.py", 5, "g"), ("repro/mod.py", 9, "h")}
        monkeypatch.setattr(reach, "run_paths", lambda work: (reached, []))
        assert reach.main(["--write"]) == 0
        assert reach.read_list(reach.LIST_FILE) == {"repro/mod.py::g": "timing: a slow dial"}
        # The kept entry is reached-but-listed: stale, not a failure.
        assert reach.main([]) == 0


def test_free_ports_skip_a_port_in_use(reach):
    base = reach.free_ports(4)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
        taken.bind(("127.0.0.1", base))
        taken.listen()
        assert reach.free_ports(2, start=base) >= base + 2
