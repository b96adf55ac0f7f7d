"""Prints the simulation hashes pinned in tests/golden/sim-hashes.txt.

Usage:
    python3 tests/golden/sim_hashes.py FLEET.json CHAOS_FLEET.json CHAOS_METRICS.json \
        [OUTPUT ...]

FLEET.json and CHAOS_FLEET.json are `fleetbench --quick` reports, plain
and with `--chaos-seed 7 --chaos-rate 300`. CHAOS_METRICS.json is the
metrics export of the CI chaos smoke (`runasm --procs 3 --frames 10
--pages 6 --rounds 40 --chaos-seed 7 --chaos-rate 250 --budget 20000000
--record chaos.rec --metrics-out chaos.json`).

Each OUTPUT is hashed whole. The committed file pins every output of two
observer runs, made from the repository root with these names:

    runasm --procs 3 --frames 6 --pages 5 --rounds 20 \
        --metrics-out obs-metrics.json --trace-out obs-trace.json \
        --profile-out obs.folded --timeseries-out obs-ts.json \
        --sample-every 50 --timeseries-every 2000
    runasm --trace --metrics-out sub-metrics.json --trace-out sub-trace.json \
        --profile-out counters.json --timeseries-out sub-ts.json \
        --sample-every 4 --timeseries-every 8 examples/asm/subroutine.rasm > sub.out

passed in that order: obs-metrics.json obs-trace.json obs.folded
obs-ts.json sub-metrics.json sub-trace.json counters.json sub-ts.json
sub.out. The second run's standard output prints the trace ring.

CI diffs the output against the committed file, so a change that alters
the simulation or an export must update that file in the same diff.
"""

import hashlib
import json
import sys


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


fleet, chaos_fleet, chaos_metrics = sys.argv[1:4]
print("# Regenerate with tests/golden/sim_hashes.py (see its docstring).")
for label, path in (
    ("fleetbench --quick", fleet),
    ("fleetbench --quick --chaos-seed 7 --chaos-rate 300", chaos_fleet),
):
    with open(path) as f:
        print(f"{label}: merged_snapshot_hash {json.load(f)['merged_snapshot_hash']}")
print(f"chaos smoke chaos.json: sha256 {sha256(chaos_metrics)}")
for path in sys.argv[4:]:
    print(f"observer run {path}: sha256 {sha256(path)}")
