"""Child processes of the benchmark, each started in a fresh interpreter.

    child.py setup WORKLOAD SEED WORKDIR   time one in-process set-up; print {"setup_s", "peak_rss_mb", "digest"}
    child.py import                        time `import pointfam`; print the seconds
    child.py traced-cli ARGS...            run `pointfam ARGS...` with every layer traced

Nothing that pointfam imports (numpy, scipy) is loaded before the timers
start, and the traced CLI process loads no more of the benchmark than the
tracer. A fresh-interpreter set-up never checks its output (the parent compares its
digest with the output it checked), so its memory peak is that of
importing pointfam, making the inputs and running one operation.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import workloads  # standard library only until a check is made

        start = time.perf_counter()
        workload, result = workloads.setup(rest[0], int(rest[1]), Path(rest[2]))
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
        print(json.dumps({"setup_s": elapsed, "peak_rss_mb": peak_mb, "digest": workload.digest(result)}))
        return 0
    sys.path.insert(0, str(SRC))
    if mode == "import":
        start = time.perf_counter()
        import pointfam  # noqa: F401

        print(repr(time.perf_counter() - start))
        return 0
    if mode == "traced-cli":
        import pointfam.cli
        from tracer import Tracer

        Tracer(pointfam).install()
        return pointfam.cli.main(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
