"""Process entry point shared by ``python -m ptsym`` and the ``ptsym`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the CLI on ``sys.argv`` as a whole process; return its exit code."""
    # The import-time heap lives until exit: frozen, no collection walks it again.
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
