"""The command line run in a child interpreter that limits its own
address space to 1 GB.  A command that would take the machine's memory
if a size check were lost then fails with a ``MemoryError`` traceback
instead."""

import os
import subprocess
import sys
from pathlib import Path

import dpcharge

SRC = str(Path(dpcharge.__file__).resolve().parent.parent)
CHILD = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from dpcharge.cli import cli_dispatch; sys.exit(cli_dispatch(sys.argv[1:]))")


def run_limited(argv: list[str], cwd: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, cwd=cwd, timeout=120)
