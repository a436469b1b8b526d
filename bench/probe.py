"""Set-up probe: ``import iontrap`` plus parsing the run's configs.

Run in a fresh interpreter by ``bench/run.py``:

    python3 bench/probe.py SRC_DIR CONFIG...

and prints the seconds from before the import to after the last parse.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv) -> int:
    src, paths = argv[0], argv[1:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from iontrap import cli
    for path in paths:
        cli.parse_config(path)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
