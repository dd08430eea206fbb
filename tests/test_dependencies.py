"""The package needs NumPy only: every module imports, and the CLI
parses, with networkx and scipy refused by the import system."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHECK = """
import importlib
import importlib.abc
import pkgutil
import sys


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("networkx", "scipy"):
            raise ImportError(f"{name} is not a dependency of repro")
        return None


sys.meta_path.insert(0, Refuse())
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
from repro.cli import build_parser

args = build_parser().parse_args(["generate", "-o", "x.json"])
assert args.command == "generate" and args.output == "x.json", args
"""


def test_imports_without_networkx_or_scipy():
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", CHECK], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert result.returncode == 0, result.stderr
