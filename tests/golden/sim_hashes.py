"""Prints the simulation hashes pinned in tests/golden/sim-hashes.txt.

Usage:
    python3 tests/golden/sim_hashes.py FLEET.json CHAOS_FLEET.json CHAOS_METRICS.json

FLEET.json and CHAOS_FLEET.json are `fleetbench --quick` reports, plain
and with `--chaos-seed 7 --chaos-rate 300`. CHAOS_METRICS.json is the
metrics export of the CI chaos smoke (`runasm --procs 3 --frames 10
--pages 6 --rounds 40 --chaos-seed 7 --chaos-rate 250 --budget 20000000
--record chaos.rec --metrics-out chaos.json`). CI diffs the output
against the committed file, so a change that alters the simulation
must update that file in the same diff.
"""

import hashlib
import json
import sys

fleet, chaos_fleet, chaos_metrics = sys.argv[1:4]
print("# Regenerate with tests/golden/sim_hashes.py (see its docstring).")
for label, path in (
    ("fleetbench --quick", fleet),
    ("fleetbench --quick --chaos-seed 7 --chaos-rate 300", chaos_fleet),
):
    with open(path) as f:
        print(f"{label}: merged_snapshot_hash {json.load(f)['merged_snapshot_hash']}")
with open(chaos_metrics, "rb") as f:
    print(f"chaos smoke chaos.json: sha256 {hashlib.sha256(f.read()).hexdigest()}")
