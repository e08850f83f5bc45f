"""Runs the E10 table at one engine thread count and records its peak RSS.

Usage, from the repository root after `cargo build --release --bin experiments`:

    python3 .github/scripts/e10_peak_rss.py THREADS

Writes the table to BENCH_SCALE_E10_T<THREADS>.json (what `experiments --json`
writes) and merges the run's peak resident set into BENCH_SCALE_E10_MEM.json as
`peak_rss_mib[THREADS]`. The peak is `getrusage(RUSAGE_CHILDREN).ru_maxrss`
(KiB on Linux) read after the only child of this process exited, so it is the
experiments binary's own high-water mark. Reported, not gated.
"""

import json
import os
import resource
import subprocess
import sys

threads = sys.argv[1]
subprocess.run(
    [
        "target/release/experiments",
        "e10",
        "--threads",
        threads,
        "--json",
        f"BENCH_SCALE_E10_T{threads}.json",
    ],
    check=True,
)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
path = "BENCH_SCALE_E10_MEM.json"
doc = {"unit": "MiB", "peak_rss_mib": {}}
if os.path.exists(path):
    with open(path) as f:
        doc = json.load(f)
doc["peak_rss_mib"][threads] = round(peak_mib, 1)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"E10 --threads {threads}: peak RSS {peak_mib:.1f} MiB")
