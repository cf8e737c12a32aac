"""Fresh-process probes behind the set-up and memory metrics.

    python3 bench/probe.py setup ROOT KIND:PATH [KIND:PATH ...]
        time `import swarmpath` plus loading and validating each input
        (KIND is `scenario` or `sweep`); prints {"setup_s": ...}
    python3 bench/probe.py rss ROOT OUTDIR ARGV_JSON
        run each CLI invocation in ARGV_JSON (a list of argument lists, the
        output directory is appended per invocation); prints
        {"peak_rss_mb": ..., "exit_codes": [...]}

Each probe is meant to be the only work of a new interpreter, so its numbers
include first-import costs that a warmed-up process no longer pays.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def probe_setup(root: Path, inputs: list[str]) -> dict:
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import swarmpath
    from swarmpath import sweep
    for item in inputs:
        kind, path = item.split(":", 1)
        if kind == "scenario":
            swarmpath.read_scenario(path)
        elif kind == "sweep":
            sweep.read_sweep(path)
        else:
            raise ValueError(f"unknown input kind {kind!r}")
    return {"setup_s": time.perf_counter() - t0}


def probe_rss(root: Path, outdir: Path, invocations: list[list[str]]) -> dict:
    sys.path.insert(0, str(root / "src"))
    from swarmpath import cli
    codes = []
    for n, argv in enumerate(invocations):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv + ["-o", str(outdir / str(n))]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"peak_rss_mb": peak_kb / 1024.0, "exit_codes": codes}


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        result = probe_setup(Path(argv[1]), argv[2:])
    elif len(argv) == 4 and argv[0] == "rss":
        result = probe_rss(Path(argv[1]), Path(argv[2]), json.loads(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
