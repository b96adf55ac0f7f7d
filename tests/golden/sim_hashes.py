"""Prints the simulation hashes pinned in tests/golden/sim-hashes.txt.

Usage:
    python3 tests/golden/sim_hashes.py FLEET.json CHAOS_FLEET.json CHAOS_METRICS.json \
        CHAOS.rec TABLES.out PROCS12.json STORM.rec [OUTPUT ...]

FLEET.json and CHAOS_FLEET.json are `fleetbench --quick` reports, plain
and with `--chaos-seed 7 --chaos-rate 300`. CHAOS_METRICS.json and
CHAOS.rec are the metrics export and the recording of the CI chaos
smoke (`runasm --procs 3 --frames 10 --pages 6 --rounds 40 --chaos-seed
7 --chaos-rate 250 --budget 20000000 --record chaos.rec --metrics-out
chaos.json`). TABLES.out is the standard output of `cargo run -p
ring-bench --bin tables --release`, the figure and experiment tables
that EXPERIMENTS.md quotes as its raw output. PROCS12.json is the
metrics export of a twelve-process page storm (`runasm --procs 12
--rounds 3 --metrics-out procs12.json`), the one pinned export with
two-digit pids in its `os.proc.<pid>.*` keys. STORM.rec is the
recording of the CI multiprogramming smoke (`runasm --procs 4 --frames
16 --record storm.rec --metrics-out storm.json`). A recording holds
the machine images captured at its checkpoints and at its end, so the
two recording lines pin how images are captured.

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

Each fleet report also gives `merged_snapshot_hash_without_fastpath`,
and each metrics export (CHAOS_METRICS.json, PROCS12.json, or an OUTPUT
that is a JSON object with a `fastpath` block) is hashed a second time with that
block removed. The `fastpath` counters record which engine ran each
step, so these lines pin the simulation apart from that choice: a
change that moves work between the fast path and the reference
interpreter must leave them unchanged.

CI diffs the output against the committed file, so a change that alters
the simulation or an export must update that file in the same diff.
"""

import hashlib
import json
import sys


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_without_fastpath(path):
    """SHA-256 of a metrics export with its `fastpath` block removed,
    re-serialised canonically; None for a file that is not one."""
    try:
        with open(path) as f:
            snap = json.load(f)
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(snap, dict) or "fastpath" not in snap:
        return None
    del snap["fastpath"]
    canon = json.dumps(snap, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def print_file(label, path):
    print(f"{label}: sha256 {sha256(path)}")
    digest = sha256_without_fastpath(path)
    if digest is not None:
        print(f"{label} without fastpath: sha256 {digest}")


fleet, chaos_fleet, chaos_metrics, chaos_rec, tables, procs12, storm_rec = sys.argv[1:8]
print("# Regenerate with tests/golden/sim_hashes.py (see its docstring).")
for label, path in (
    ("fleetbench --quick", fleet),
    ("fleetbench --quick --chaos-seed 7 --chaos-rate 300", chaos_fleet),
):
    with open(path) as f:
        report = json.load(f)
    for key in ("merged_snapshot_hash", "merged_snapshot_hash_without_fastpath"):
        print(f"{label}: {key} {report[key]}")
print_file("chaos smoke chaos.json", chaos_metrics)
print(f"chaos smoke chaos.rec: sha256 {sha256(chaos_rec)}")
print(f"tables stdout: sha256 {sha256(tables)}")
print_file("runasm --procs 12 --rounds 3 procs12.json", procs12)
print(f"multiprogramming smoke storm.rec: sha256 {sha256(storm_rec)}")
for path in sys.argv[8:]:
    print_file(f"observer run {path}", path)
