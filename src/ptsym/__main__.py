"""Process entry point shared by ``python -m ptsym`` and the ``ptsym`` script."""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run the CLI on ``sys.argv`` as a whole process; return its exit code."""
    # The import-time heap lives until exit: frozen, no collection walks it again.
    gc.freeze()
    try:
        code = main()
        # a command that builds arrays imported numpy inside main: freeze again,
        # so the collection at exit skips numpy's import heap too
        gc.freeze()
        # flush here, so a reader that closed stdout early is caught below
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit; point it at devnull so that cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ptsym: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(run())
