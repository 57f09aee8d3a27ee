"""Run every case of the CLI tables in `test_cli.py` against the installed
`treksep` script, the first on PATH, each in its own process, and compare
its exit code, stdout and stderr with the case's, byte for byte.  The
internal-error cases are left out: they need a fault planted in-process.

    python -m pip install . && python tests/run_cli_rows.py

Exits 0 when every case passes; otherwise exits 1 at the first failing
case, naming it.  Not a pytest module: Tier-1 runs the same cases through
`cli.main`.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_cli import CASES, check_case, write_graphs


def run_installed(argv):
    done = subprocess.run(["treksep", *argv], capture_output=True, timeout=120)
    # strict UTF-8 would raise on a stray byte; surrogateescape keeps it unequal instead
    return (done.returncode, *(data.decode("utf-8", "surrogateescape")
                               for data in (done.stdout, done.stderr)))


def main() -> int:
    cases = [(name, case) for name, case in CASES if case[0] != "internal error"]
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_graphs(Path(tmp))
        for name, case in cases:
            try:
                check_case(case, paths, run_installed)
            except AssertionError as exc:
                print(f"FAILED {name}: {exc}", file=sys.stderr)
                return 1
    print(f"{len(cases)} cases passed against {shutil.which('treksep')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
