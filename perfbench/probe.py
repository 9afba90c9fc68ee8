"""Fresh-interpreter probe: set-up time, one run, peak memory, output hashes.

Usage: python3 perfbench/probe.py <src dir> '<config JSON>' [--setup-only]

Times `import mfpsim` plus `load_config` (JSON-schema validation included)
from a cold interpreter, then runs the config once.  Prints one JSON line
with the set-up seconds, the run's wall and CPU seconds, the process's peak
resident memory and the sha256 of every output file; with --setup-only, the
set-up seconds alone.  Only the standard
library is imported before the timer starts, so no warm-up hides import or
schema cost.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mfpsim  # noqa: E402

import json  # noqa: E402

cfg = mfpsim.load_config(json.loads(sys.argv[2]))
setup_s = time.perf_counter() - t0
if sys.argv[3:] == ["--setup-only"]:
    print(json.dumps({"setup_s": setup_s}))
    sys.exit(0)

w0, c0 = time.perf_counter(), time.process_time()
texts = mfpsim.run(cfg).output_texts()
run_s, run_cpu_s = time.perf_counter() - w0, time.process_time() - c0

import hashlib  # noqa: E402
import resource  # noqa: E402

print(
    json.dumps(
        {
            "setup_s": setup_s,
            "run_s": run_s,
            "run_cpu_s": run_cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "hashes": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(texts.items())},
        }
    )
)
