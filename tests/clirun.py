"""Run the `divmart` command in-process, with its output captured."""

import contextlib
import io
from dataclasses import dataclass
from typing import Optional

from divmart.cli import main


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exception: Optional[BaseException]  # None when the exit code is 0


class _Tee(io.StringIO):
    """A captured stream that also copies its text into `both`."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, s: str) -> int:
        self.both.write(s)
        return super().write(s)


def run_cli(argv: list[str]) -> CliResult:
    """`divmart argv...` as a process would end it: SystemExit gives its
    exit code, and any other exception gives exit 1 and is kept in
    `exception`."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
            exception = e if code else None
        except Exception as e:
            code, exception = 1, e
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
