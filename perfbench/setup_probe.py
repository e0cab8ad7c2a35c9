"""One set-up sample, run in a fresh interpreter by run.py.

Times the import of numpy, scipy and mimo_precoding, the construction of the
workload's configuration and one warm-up cell, then prints {"setup_s": ...}.

    python3 perfbench/setup_probe.py <workload>    # from the repository root
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from mimo_precoding import harness
    from workloads import WORKLOADS

    cfg = WORKLOADS[sys.argv[1]].warmup_scenario()
    report = harness.run_scenario(cfg)
    elapsed = time.perf_counter() - T0
    if report.failures:
        print(f"warm-up cell failed: {report.failures}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
