"""Set-up cost in a fresh process: import softarm and build one workload's
fixed objects. bench/run.py runs it several times for ``setup_s``.

    python3 bench/setup_probe.py <workload> [scenario.json]

Prints {"setup_s": seconds} measured from before the first import.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads  # imports numpy and softarm

    workloads.build_fixed(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


if __name__ == "__main__":
    main()
