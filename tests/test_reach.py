"""``tools/reach.py``'s recorder and matcher on a fixture module.

The full run (every runner row, ~5 min) is not tier-1; this holds the
parts it trusts: a called def is reached, a decorated def is keyed by its
first decorator's line (where its code object starts), an uncalled
nested def is reported, and the census tells a parameter some call
varied from one every call left at its default.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

FIXTURE = '''\
def tag(function):
    return function


def called():
    return 1


@tag
def decorated():
    def inner():
        return 2

    return 3


def never():
    return 4
'''


CENSUS = '''\
from dataclasses import dataclass

LIMIT = 0.5


def scaled(value, step=1, limit=LIMIT, *, strict=False, label="x"):
    return value


@dataclass(frozen=True)
class Config:
    size: int = 4
    name: str = "a"
'''

CENSUS_CALLS = """\
from repro import census
census.scaled(1)
census.scaled(1, 2, strict=True)
census.scaled(1, limit=0.5, strict=False)  # equal, not identical
census.Config()
census.Config(name="b")
"""


def _reach():
    spec = importlib.util.spec_from_file_location("tools_reach", REACH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_matcher_on_a_fixture_module(tmp_path):
    reach = _reach()
    root = tmp_path / "checkout"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "fixture.py").write_text(FIXTURE)
    work = tmp_path / "work"
    subprocess.run(
        [sys.executable, "-c",
         "from repro import fixture; fixture.called(); fixture.decorated()"],
        cwd=root, env=reach.recording_env(root, work), check=True,
    )
    defs = reach.src_defs(root)
    by_name = {d.qualname: d for d in defs}
    assert by_name["decorated"].line == FIXTURE.splitlines().index("@tag") + 1
    missed = reach.unreached(defs, reach.called_lines(work, root))
    assert [d.qualname for d in missed] == ["decorated.<locals>.inner", "never"]
    assert reach.inventory(missed, len(defs)).splitlines() == [
        "src/repro/fixture.py",
        "       11  decorated.<locals>.inner  (2 lines)",
        "       17  never  (2 lines)",
        "unreached 2 of 5 defs, 4 lines",
    ]


def test_census_on_a_fixture_module(tmp_path):
    reach = _reach()
    root = tmp_path / "checkout"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "census.py").write_text(CENSUS)
    work = tmp_path / "work"
    subprocess.run([sys.executable, "-c", CENSUS_CALLS], cwd=root,
                   env=reach.recording_env(root, work), check=True)
    assert reach.knob_inventory(reach.census(work, root)).splitlines() == [
        "src/repro/census.py",
        "        6  scaled  (limit, label)",
        "       10  Config  (size)",
        "never varied 3 of 6 defaulted parameters",
    ]


def test_examples_are_those_of_the_measured_checkout(tmp_path):
    reach = _reach()
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "only_here.py").write_text("print(1)\n")
    work = tmp_path / "work"
    ran = [(command.argv, files) for command, files in
           reach.smoke_commands(tmp_path, work, examples=True)
           if command.argv[1].startswith("examples/")]
    assert ran == [(("python", "examples/only_here.py"), work / "examples")]
    assert not any(command.argv[1].startswith("examples/") for command, _ in
                   reach.smoke_commands(tmp_path, work, examples=False))
