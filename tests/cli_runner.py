"""Run the `ocnsim` command line in this process and capture what it prints."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from ocnsim.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run(*args: str) -> Result:
    """`main(list(args))` with its streams captured and its exit as a code."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), err.getvalue())
