"""The process entry: ``python -m quiddity`` and the ``quiddity`` script."""

import gc
import sys


def main() -> int:
    # Freeze first, so no collection in the request or at exit walks the start-up heap.
    gc.freeze()
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
