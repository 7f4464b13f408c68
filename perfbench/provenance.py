"""Provenance recorded with every result, and the comparability rule.

Each recorder returns one block, in the spirit of a CommandLine / Date /
Platform / CPU wrapper list: what ran, when, on which interpreter and
libraries, on how many CPUs, from which commit, and whether the native
dispatch kernel was in use.
"""

from __future__ import annotations

import datetime
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

#: provenance fields two result sets must share to be compared at all
COMPARABLE = ("cpu_count", "native_available")


def _git(root: Path) -> dict:
    """Commit and dirty flag, or ``unknown`` outside a git checkout of ``root``."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return {"git_sha": "unknown", "git_dirty": None}
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _compiler() -> str:
    """The version line of the C compiler the native kernel build tries first."""
    for compiler in ("cc", "gcc", "clang"):
        if shutil.which(compiler) is None:
            continue
        try:
            out = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True, timeout=30
            ).stdout
        except (OSError, subprocess.SubprocessError):
            continue
        return out.splitlines()[0] if out else compiler
    return "none"


def collect(root: Path, argv: list[str]) -> dict:
    """Every provenance block for a run started with ``argv``."""
    import numpy

    from repro.sim.dispatch_batch import native_available

    return {
        "command_line": [sys.executable, *argv],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "native_available": native_available(),
        "compiler": _compiler(),
        **_git(root),
    }


class IncomparableResults(Exception):
    """Two result sets ran on set-ups whose numbers must not be compared."""


def require_comparable(first: dict, second: dict) -> None:
    """Raise unless two provenance blocks agree on :data:`COMPARABLE`."""
    differing = [key for key in COMPARABLE if first.get(key) != second.get(key)]
    if differing:
        detail = ", ".join(
            f"{key}: {first.get(key)!r} vs {second.get(key)!r}" for key in differing
        )
        raise IncomparableResults(f"results are not comparable ({detail})")
