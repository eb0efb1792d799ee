"""`python -m cullis`: run `cli.main`, then end the process at once.

Once the output is flushed the process leaves through `os._exit`, which
skips the interpreter's teardown (freeing every module the call loaded) and
so also `atexit` handlers; a tool that needs those calls `cli.main` in
process.  argparse's exits (`--help`, a usage error) end the same way.
"""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()  # main writes and flushes stdout inside its try: a failed flush exits 2
    except SystemExit as exc:  # argparse, after --help or a usage error
        code = exc.code
        try:
            if sys.stdout is not None:  # None when the descriptor is closed
                sys.stdout.flush()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
