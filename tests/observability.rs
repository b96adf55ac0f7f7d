//! Integration tests of the observability layer (`ring-metrics`): the
//! recorder must be a pure observer — bit-for-bit identical
//! architectural state with metrics on or off — and its counters must
//! agree with what a known workload actually does.

use multiring::cli::{MachineArgs, Session};
use multiring::core::addr::SegAddr;
use multiring::core::registers::{Dbr, Ipr, PtrReg};
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::core::word::Word;
use multiring::core::{AbsAddr, SegNo};
use multiring::cpu::machine::{Machine, MachineConfig, RunExit};
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;
use multiring::metrics::Crossing;
use multiring::os::conventions::{gate_addr, ring1, segs};
use multiring::os::driver::gen_call_sequence;
use multiring::os::System;
use multiring::trace::json::{self, Json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one randomly-filled machine from `seed` (the fuzz_machine
/// recipe): random physical memory, random DBR, random start state —
/// every fault path gets exercised.
fn random_machine(seed: u64, enable_metrics: bool, enable_spans: bool) -> Machine {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = 4 * 1024;
    let mut m = Machine::new(words, MachineConfig::default());
    if enable_metrics {
        m.enable_metrics();
    }
    if enable_spans {
        m.enable_spans();
    }
    for a in 0..words as u32 {
        if rng.gen_bool(0.7) {
            m.phys_mut()
                .poke(AbsAddr::new(a).unwrap(), Word::new(rng.gen()))
                .unwrap();
        }
    }
    m.load_dbr(Dbr::new(
        AbsAddr::new(rng.gen_range(0..words as u32)).unwrap(),
        rng.gen_range(0..64),
        SegNo::new(rng.gen_range(0..100)).unwrap(),
    ));
    let ring = Ring::new(rng.gen_range(0..8)).unwrap();
    m.set_ipr(Ipr::new(
        ring,
        SegAddr::from_parts(rng.gen_range(0..64), rng.gen_range(0..1024)).unwrap(),
    ));
    for n in 0..8 {
        m.set_pr(
            n,
            PtrReg::new(
                Ring::new(rng.gen_range(0..8)).unwrap(),
                SegAddr::from_parts(rng.gen_range(0..64), rng.gen_range(0..1024)).unwrap(),
            ),
        );
    }
    m
}

/// Asserts that two machines are in the same architectural state:
/// registers, statistics, cycle count, and all of physical memory.
fn assert_same_architecture(a: &Machine, b: &Machine, seed: u64) {
    assert_eq!(a.ipr(), b.ipr(), "seed {seed}: IPR diverged");
    assert_eq!(a.a(), b.a(), "seed {seed}: A diverged");
    assert_eq!(a.q(), b.q(), "seed {seed}: Q diverged");
    for n in 0..8 {
        assert_eq!(a.pr(n), b.pr(n), "seed {seed}: PR{n} diverged");
        assert_eq!(a.xreg(n), b.xreg(n), "seed {seed}: X{n} diverged");
    }
    assert_eq!(a.cycles(), b.cycles(), "seed {seed}: cycles diverged");
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(
        sa.instructions, sb.instructions,
        "seed {seed}: instruction counts diverged"
    );
    assert_eq!(sa.traps, sb.traps, "seed {seed}: trap counts diverged");
    for addr in 0..4 * 1024u32 {
        let pa = AbsAddr::new(addr).unwrap();
        assert_eq!(
            a.phys().peek(pa),
            b.phys().peek(pa),
            "seed {seed}: memory diverged at {addr}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recorder is a pure observer: running the same arbitrary
    /// (garbage) machine with metrics enabled and disabled reaches a
    /// bit-for-bit identical architectural state.
    #[test]
    fn metrics_never_change_architectural_state(seed in any::<u64>()) {
        let mut plain = random_machine(seed, false, false);
        let mut observed = random_machine(seed, true, false);
        for _ in 0..200 {
            let a = plain.step();
            let b = observed.step();
            prop_assert_eq!(a, b, "step outcomes diverged for seed {}", seed);
            if a == multiring::cpu::machine::StepOutcome::Halted {
                break;
            }
        }
        assert_same_architecture(&plain, &observed, seed);
        // And the observed run actually recorded something: the
        // instruction counter mirrors the machine's own statistics.
        let snap = observed.metrics_snapshot();
        prop_assert!(snap.enabled);
        prop_assert_eq!(snap.instructions, observed.stats().instructions);
    }

    /// The span flight recorder is a pure observer too: spans on or
    /// off, an arbitrary machine reaches bit-for-bit identical
    /// architectural state (disabled recording is zero-cost *and*
    /// enabled recording never perturbs execution).
    #[test]
    fn spans_never_change_architectural_state(seed in any::<u64>()) {
        let mut plain = random_machine(seed, false, false);
        let mut observed = random_machine(seed, false, true);
        for _ in 0..200 {
            let a = plain.step();
            let b = observed.step();
            prop_assert_eq!(a, b, "step outcomes diverged for seed {}", seed);
            if a == multiring::cpu::machine::StepOutcome::Halted {
                break;
            }
        }
        assert_same_architecture(&plain, &observed, seed);
        // Random garbage machines trap constantly, so the recorder
        // must actually have seen crossings (the comparison above is
        // not vacuous).
        if observed.stats().traps > 0 {
            prop_assert!(
                !observed.spans().events().is_empty(),
                "traps occurred but no span events were recorded"
            );
        }
    }
}

/// Builds the known gate-call workload: `calls` gate calls from ring 4
/// into a ring-1 native service at segment 20 entry 0, ending in an
/// exit derail handled by a halting trap segment.
fn gate_call_world(calls: u64) -> World {
    let mut w = World::new();
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(128),
    );
    let service = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
            .gates(1)
            .bound_words(16),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.machine
        .register_native(service, |m, _| Ok(NativeAction::Return { via: m.pr(2) }));
    let mut asm = String::new();
    for i in 0..calls {
        asm.push_str(&format!(
            "        eap pr2, ret{i}\n        eap pr3, gatep,*\n        call pr3|0\nret{i}:  nop\n"
        ));
    }
    asm.push_str("        drl 0o777\ngatep:  its 4, 20, 0\n");
    let out = multiring::asm::assemble(&asm).expect("gate-call program");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w
}

/// A known workload measured exactly: `N` gate calls from ring 4 into a
/// ring-1 service must record `N` hardware down-calls, `N` up-returns,
/// the matching matrix cells, and exactly one trap (the exit derail).
#[test]
fn gate_calls_record_exact_crossing_counts() {
    const CALLS: u64 = 3;
    let mut w = gate_call_world(CALLS);
    let code = SegNo::new(10).unwrap();
    w.machine.enable_metrics();
    w.start(Ring::R4, code, 0);
    assert_eq!(w.machine.run(10_000), RunExit::Halted);

    let snap = w.machine.metrics_snapshot();
    let crossings = &snap.crossings;
    assert_eq!(crossings.count(Crossing::CallDown), CALLS);
    assert_eq!(crossings.count(Crossing::ReturnUp), CALLS);
    assert_eq!(crossings.count(Crossing::CallSameRing), 0);
    assert_eq!(
        crossings.count(Crossing::TrapToRing0),
        1,
        "only the exit derail traps"
    );
    assert_eq!(crossings.count(Crossing::UpwardCallTrap), 0);
    assert_eq!(crossings.matrix[4][1], CALLS, "CALL cells 4->1");
    assert_eq!(crossings.matrix[1][4], CALLS, "RETURN cells 1->4");
    assert_eq!(crossings.total_ring_changes(), 2 * CALLS + 1);
    assert_eq!(snap.faults.total(), 1);
    assert_eq!(snap.call_cycles.count(), CALLS);
    // The counters agree with the machine's own statistics.
    let stats = w.machine.stats();
    assert_eq!(crossings.count(Crossing::CallDown), stats.calls_downward);
    assert_eq!(crossings.count(Crossing::ReturnUp), stats.returns_upward);
}

/// The same workload through the span recorder: `N` gate calls build
/// exactly `N` matched call spans on the (ring 1, seg 20, entry 0)
/// gate plus one dangling trap span for the exit derail, with sane
/// cycle attribution, and the Perfetto export is loadable Chrome
/// trace-format JSON.
#[test]
fn gate_call_spans_build_exact_tree() {
    use multiring::trace::{build_tree, gate_table, SpanKind};
    const CALLS: u64 = 3;
    let mut w = gate_call_world(CALLS);
    w.machine.enable_spans();
    w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    assert_eq!(w.machine.run(10_000), RunExit::Halted);

    let final_cycles = w.machine.cycles();
    let tree = build_tree(w.machine.spans().events(), final_cycles);
    assert_eq!(tree.unmatched_closes, 0);
    let calls: Vec<_> = tree
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Call)
        .collect();
    let traps: Vec<_> = tree
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Trap)
        .collect();
    assert_eq!(calls.len(), CALLS as usize, "one span per gate call");
    assert_eq!(traps.len(), 1, "one trap span for the exit derail");
    for s in &calls {
        assert_eq!(s.key.ring, 1, "gate executes in ring 1");
        assert_eq!(s.key.segno, 20);
        assert_eq!(s.key.entry, 0);
        assert_eq!(s.from_ring, 4);
        assert_eq!(s.to_ring, Some(4), "matched RETURN back to ring 4");
        assert_eq!(s.depth, 0, "top-level spans — no nesting here");
        assert!(s.close_cycles.is_some());
        assert!(s.total_cycles > 0, "a crossing costs cycles");
        assert_eq!(s.self_cycles, s.total_cycles, "leaf span: self == total");
    }
    // The derail's trap span never sees a RETT (the native handler
    // halts), so it dangles and is attributed up to the final cycle.
    assert_eq!(traps[0].key.ring, 0, "traps force ring 0");
    assert_eq!(traps[0].from_ring, 4);
    assert!(traps[0].close_cycles.is_none());
    assert_eq!(traps[0].open_cycles + traps[0].total_cycles, final_cycles);

    // Aggregation: one gate row with all three calls, one trap row.
    let table = gate_table(&tree);
    assert_eq!(table.len(), 2);
    assert_eq!(table.iter().map(|g| g.calls).sum::<u64>(), CALLS + 1);
    let gate = table
        .iter()
        .find(|g| g.kind == SpanKind::Call)
        .expect("gate row");
    assert_eq!(gate.calls, CALLS);
    assert_eq!(
        gate.total_cycles,
        calls.iter().map(|s| s.total_cycles).sum::<u64>()
    );

    // One fault instant rode along (the derail), and the export is
    // valid Chrome trace-event JSON with events on ring tracks 4, 1, 0.
    let events = w.machine.take_span_events();
    let instants = events
        .iter()
        .filter(|e| matches!(e, multiring::cpu::SpanEvent::Instant { .. }))
        .count();
    assert_eq!(instants, 1, "exactly the derail fault instant");
    let doc = multiring::trace::perfetto::chrome_trace_json(&events, final_cycles);
    let parsed = multiring::trace::json::parse(&doc).expect("export parses as JSON");
    let traces = parsed
        .get("traceEvents")
        .and_then(|t| t.as_arr())
        .expect("traceEvents array");
    assert!(!traces.is_empty());
    let mut tids = std::collections::BTreeSet::new();
    for ev in traces {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(
            ["B", "E", "i", "M"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some(), "{ev:?}");
        if ph != "M" {
            tids.insert(ev.get("tid").and_then(|t| t.as_u64()).expect("tid"));
            assert!(ev.get("ts").is_some(), "timestamped event");
        }
    }
    assert_eq!(
        tids.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 4],
        "one track per ring that saw activity"
    );
}

/// The supervisor's own counters ride along in the snapshot: a ring-1
/// gate call from a logged-in process shows up both in the hardware
/// crossing counters and in the `os.*` extras.
#[test]
fn system_snapshot_carries_supervisor_extras() {
    let mut sys = System::boot();
    sys.enable_metrics();
    let pid = sys.login("alice");
    let mut data = vec![Word::new(5)]; // units to charge
    data.resize(16, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let calls = vec![(
        gate_addr(segs::RING1, ring1::ACCT_CHARGE),
        vec![SegAddr::from_parts(scratch.segno, 0).unwrap()],
    )];
    let seq = gen_call_sequence(Ring::R4, &calls);
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    sys.prepare(pid, code.segno, 0, Ring::R4);
    assert_eq!(sys.machine.run(100_000), RunExit::Halted);

    let snap = sys.metrics_snapshot();
    assert!(
        snap.crossings.count(Crossing::CallDown) >= 1,
        "gate call crossed down"
    );
    assert!(snap.crossings.count(Crossing::ReturnUp) >= 1);
    let extra = |key: &str| {
        snap.extra(key)
            .unwrap_or_else(|| panic!("missing extra {key}"))
    };
    assert_eq!(extra("os.gate_calls_ring1"), 1);
    assert_eq!(extra(&format!("os.proc.{pid}.gate_calls")), 1);
    // The JSON export carries the extras too.
    let json = snap.to_json();
    assert!(json.contains("\"os.gate_calls_ring1\": 1"));
}

/// A wrapped execution-trace ring buffer surfaces its drop count in
/// the snapshot and in both export formats — the count must survive
/// wraparound, not reset with the discarded events.
#[test]
fn trace_ring_wraparound_drop_count_survives_export() {
    let mut w = gate_call_world(8);
    w.machine.enable_metrics();
    // A 4-entry ring under a multi-hundred-event workload is
    // guaranteed to wrap many times over.
    w.machine.enable_trace(4);
    w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    assert_eq!(w.machine.run(10_000), RunExit::Halted);

    let dropped = w.machine.trace_dropped();
    assert!(dropped > 0, "a 4-entry trace ring must have wrapped");
    let snap = w.machine.metrics_snapshot();
    assert_eq!(snap.trace_dropped, dropped);
    let json = snap.to_json();
    assert!(
        json.contains(&format!("\"trace\": {{\"dropped\": {dropped}}}")),
        "drop count missing from JSON: {json}"
    );
    let csv = snap.to_csv();
    assert!(
        csv.lines().any(|l| l == format!("trace.dropped,{dropped}")),
        "drop count missing from CSV"
    );
}

/// A three-process page storm under a six-frame budget (what `runasm
/// --procs 3 --frames 6 --pages 5 --rounds 20` runs), with the
/// observers `observe` turns on, ready to run.
fn page_storm(observe: impl FnOnce(&mut System)) -> System {
    let args = MachineArgs {
        procs: 3,
        frames: 6,
        pages: 5,
        rounds: 20,
        quantum: 400,
        ..MachineArgs::default()
    };
    let Ok(Session::Kernel { mut sys, .. }) = args.build() else {
        panic!("--procs builds the kernel");
    };
    observe(&mut sys);
    sys
}

fn run_storm(observe: impl FnOnce(&mut System)) -> System {
    let mut sys = page_storm(observe);
    assert_eq!(sys.machine.run(5_000_000), RunExit::Halted);
    sys
}

/// The time series counts faults, ring changes and page faults from
/// the machine's own commit points, so it reads the same whether or
/// not the metrics recorder is on.
#[test]
fn timeseries_counts_faults_with_metrics_off() {
    let off = run_storm(|s| s.enable_profiler(0, 2_000));
    let on = run_storm(|s| {
        s.enable_metrics();
        s.enable_profiler(0, 2_000);
    });
    let deltas = off.timeseries().deltas();
    assert!(deltas.iter().any(|p| p.page_faults > 0), "the storm pages");
    assert!(deltas.iter().any(|p| p.ring_changes > p.page_faults));
    assert_eq!(off.timeseries().to_json(), on.timeseries().to_json());
}

/// The profiler keeps its own frame stack: alone, it records no span
/// events, and its profile and time series equal those of the same run
/// with the span recorder on.
#[test]
fn profiler_alone_records_no_spans_and_profiles_as_with_spans() {
    let alone = run_storm(|s| s.enable_profiler(50, 2_000));
    let with_spans = run_storm(|s| {
        s.enable_spans();
        s.enable_profiler(50, 2_000);
    });
    assert!(alone.machine.spans().events().is_empty());
    assert!(!with_spans.machine.spans().events().is_empty());
    let folded = alone.profiler().folded();
    assert!(
        folded.contains("\npid1;r4:"),
        "samples are rooted at the running process:\n{folded}"
    );
    assert_eq!(folded, with_spans.profiler().folded());
    assert_eq!(
        alone.timeseries().to_json(),
        with_spans.timeseries().to_json()
    );
}

/// Draining the span log mid-run is invisible to the profiler.
#[test]
fn draining_spans_mid_run_leaves_the_profile_unchanged() {
    let observe = |s: &mut System| {
        s.enable_spans();
        s.enable_profiler(50, 2_000);
    };
    let whole = run_storm(observe);
    let mut drained = page_storm(observe);
    let mut events = 0;
    while drained.machine.run(100) != RunExit::Halted {
        events += drained.take_span_events().len();
    }
    assert!(events > 0, "spans were drained mid-run");
    assert_eq!(drained.profiler().folded(), whole.profiler().folded());
    assert_eq!(drained.profiler().samples(), whole.profiler().samples());
}

/// The CSV flattening is collision-free and lossless: every dotted key
/// appears exactly once, and each row's value parses back to exactly
/// what the snapshot struct holds — across every nested family
/// (`crossings.*` with the matrix cells, `faults.*`, `opcode_classes.*`,
/// `instructions_by_ring.*`, `histograms.*`, `heatmap.N.*`,
/// `sdw_cache.*`, `fastpath.*`, `prof.*`, `trace.*`, `scheduler.*`,
/// `extra.os.*`).
#[test]
fn csv_flattening_roundtrips_every_key_exactly_once() {
    // A supervisor run populates the most sections at once: hardware
    // counters, histograms, heatmap, profiler, and the os.* extras.
    let mut sys = System::boot();
    sys.enable_metrics();
    sys.enable_profiler(10, 50);
    let pid = sys.login("alice");
    let mut data = vec![Word::new(5)];
    data.resize(16, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let calls = vec![(
        gate_addr(segs::RING1, ring1::ACCT_CHARGE),
        vec![SegAddr::from_parts(scratch.segno, 0).unwrap()],
    )];
    let seq = gen_call_sequence(Ring::R4, &calls);
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    sys.prepare(pid, code.segno, 0, Ring::R4);
    assert_eq!(sys.machine.run(100_000), RunExit::Halted);

    let snap = sys.metrics_snapshot();
    let csv = snap.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("key,value"), "CSV header");
    let mut rows = std::collections::BTreeMap::new();
    for line in lines {
        let (k, v) = line.split_once(',').expect("key,value row");
        assert!(
            rows.insert(k.to_string(), v.to_string()).is_none(),
            "duplicate CSV key {k}"
        );
        assert!(
            v.parse::<f64>().is_ok(),
            "row {k}={v} does not parse as a number"
        );
    }
    let num = |k: &str| -> u64 {
        rows.get(k)
            .unwrap_or_else(|| panic!("missing CSV row {k}"))
            .parse()
            .unwrap_or_else(|e| panic!("row {k} not a u64: {e}"))
    };
    assert_eq!(num("instructions"), snap.instructions);
    assert_eq!(num("cycles"), snap.cycles);
    for (key, v) in snap.crossings.iter() {
        assert_eq!(num(&format!("crossings.{key}")), v);
    }
    assert_eq!(
        num("crossings.ring_changes"),
        snap.crossings.total_ring_changes()
    );
    for (from, row) in snap.crossings.matrix.iter().enumerate() {
        for (to, v) in row.iter().enumerate() {
            // Only the cells that saw a transition are exported.
            let key = format!("crossings.matrix.{from}.{to}");
            if *v > 0 {
                assert_eq!(num(&key), *v);
            } else {
                assert!(!rows.contains_key(&key), "zero cell {key} exported");
            }
        }
    }
    assert_eq!(num("faults.total"), snap.faults.total());
    for (key, v) in snap.faults.iter() {
        assert_eq!(num(&format!("faults.by_vector.{key}")), v);
    }
    for (ring, v) in snap.faults.by_ring.iter().enumerate() {
        assert_eq!(num(&format!("faults.by_ring.{ring}")), *v);
    }
    for (key, v) in snap.opclasses.iter() {
        assert_eq!(num(&format!("opcode_classes.{key}")), v);
    }
    for (ring, v) in snap.instr_by_ring.iter().enumerate() {
        assert_eq!(num(&format!("instructions_by_ring.{ring}")), *v);
    }
    for (segno, h) in snap.heatmap.iter() {
        assert_eq!(num(&format!("heatmap.{segno}.reads")), h.reads);
        assert_eq!(num(&format!("heatmap.{segno}.writes")), h.writes);
        assert_eq!(num(&format!("heatmap.{segno}.executes")), h.executes);
        assert_eq!(num(&format!("heatmap.{segno}.violations")), h.violations);
    }
    for (k, v) in snap.extras() {
        assert_eq!(num(&format!("extra.{k}")), v);
    }
    for (key, h) in [
        ("call_cycles", &snap.call_cycles),
        ("return_cycles", &snap.return_cycles),
    ] {
        assert_eq!(num(&format!("histograms.{key}.count")), h.count());
        assert_eq!(num(&format!("histograms.{key}.sum")), h.sum());
        assert_eq!(num(&format!("histograms.{key}.min")), h.min());
        assert_eq!(num(&format!("histograms.{key}.max")), h.max());
        assert_eq!(num(&format!("histograms.{key}.p50")), h.percentile(0.50));
        assert_eq!(num(&format!("histograms.{key}.p99")), h.percentile(0.99));
    }
    let sdw = snap.sdw_cache;
    for (key, v) in [
        ("hits", sdw.hits),
        ("misses", sdw.misses),
        ("flushes", sdw.flushes),
        ("invalidations", sdw.invalidations),
    ] {
        assert_eq!(num(&format!("sdw_cache.{key}")), v);
    }
    let fp = snap.fastpath;
    for (key, v) in [
        ("fast_instructions", fp.fast_instructions),
        ("slow_instructions", fp.slow_instructions),
        ("tlb.hits", fp.tlb_hits),
        ("tlb.misses", fp.tlb_misses),
        ("tlb.installs", fp.tlb_installs),
        ("tlb.invalidations", fp.tlb_invalidations),
        ("tlb.flushes", fp.tlb_flushes),
        ("icache.hits", fp.icache_hits),
        ("icache.misses", fp.icache_misses),
    ] {
        assert_eq!(num(&format!("fastpath.{key}")), v);
    }
    for (key, ratio) in [
        ("sdw_cache.hit_ratio", sdw.hit_ratio()),
        ("fastpath.fast_ratio", fp.fast_ratio()),
    ] {
        assert_eq!(rows[key], format!("{ratio:.3}"));
    }
    assert_eq!(num("prof.samples"), snap.prof.samples);
    assert_eq!(num("prof.sample_every"), snap.prof.sample_every);
    assert_eq!(num("prof.timeseries_points"), snap.prof.timeseries_points);
    assert_eq!(num("prof.timeseries_every"), snap.prof.timeseries_every);
    assert_eq!(num("trace.dropped"), snap.trace_dropped);
    assert_eq!(
        num("scheduler.context_switches"),
        snap.sched.context_switches
    );
    assert!(
        snap.prof.samples > 0,
        "profiler never sampled — the prof.* roundtrip is vacuous"
    );
    assert!(
        !snap.extra.is_empty(),
        "no extras recorded — the extra.* roundtrip is vacuous"
    );
}

/// The member at `path` of a parsed export, a key per object level and
/// an index per array level.
fn json_at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |j, key| {
        let next = match key.parse::<usize>() {
            Ok(i) => j.as_arr().and_then(|items| items.get(i)),
            Err(_) => j.get(key),
        };
        next.unwrap_or_else(|| panic!("export lacks {path:?}"))
    })
}

/// The export's number at `path`, as a `u64`.
fn json_u64(doc: &Json, path: &[&str]) -> u64 {
    json_at(doc, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a count"))
}

/// The JSON export says what the snapshot holds: every family parsed
/// back key by key equals the typed counters. A page storm under a
/// chaos campaign fills most families at once, the `chaos.*` extras
/// among them.
#[test]
fn json_export_roundtrips_every_family() {
    let args = MachineArgs {
        procs: 3,
        frames: 10,
        pages: 6,
        rounds: 40,
        chaos_seed: Some(7),
        chaos_rate: 250,
        ..MachineArgs::default()
    };
    let Ok(Session::Kernel { mut sys, .. }) = args.build() else {
        panic!("--procs builds the kernel");
    };
    sys.enable_metrics();
    assert_eq!(sys.machine.run(20_000_000), RunExit::Halted);
    let snap = sys.metrics_snapshot();
    let doc = json::parse(&snap.to_json()).expect("the export is JSON");
    let num = |path: &[&str]| json_u64(&doc, path);

    for (key, v) in snap.crossings.iter() {
        assert_eq!(num(&["crossings", key]), v, "crossings.{key}");
    }
    assert_eq!(
        num(&["crossings", "ring_changes"]),
        snap.crossings.total_ring_changes()
    );
    for (from, row) in snap.crossings.matrix.iter().enumerate() {
        for (to, v) in row.iter().enumerate() {
            let (from, to) = (from.to_string(), to.to_string());
            assert_eq!(num(&["crossings", "matrix", &from, &to]), *v);
        }
    }
    assert_eq!(num(&["faults", "total"]), snap.faults.total());
    for (key, v) in snap.faults.iter() {
        assert_eq!(num(&["faults", "by_vector", key]), v, "vector {key}");
    }
    for (ring, v) in snap.faults.by_ring.iter().enumerate() {
        assert_eq!(num(&["faults", "by_ring", &ring.to_string()]), *v);
    }
    for (key, v) in snap.opclasses.iter() {
        assert_eq!(num(&["opcode_classes", key]), v, "op class {key}");
    }
    for (ring, v) in snap.instr_by_ring.iter().enumerate() {
        assert_eq!(num(&["instructions_by_ring", &ring.to_string()]), *v);
    }
    let rows = json_at(&doc, &["heatmap"]).as_arr().expect("heatmap rows");
    assert_eq!(rows.len(), snap.heatmap.len());
    for (row, (segno, h)) in rows.iter().zip(snap.heatmap.iter()) {
        for (key, v) in [
            ("segno", u64::from(segno)),
            ("reads", h.reads),
            ("writes", h.writes),
            ("executes", h.executes),
            ("violations", h.violations),
        ] {
            assert_eq!(json_u64(row, &[key]), v, "heatmap {segno} {key}");
        }
    }
    for (name, h) in [
        ("call_cycles", &snap.call_cycles),
        ("return_cycles", &snap.return_cycles),
        ("ea_indirect_depth", &snap.ea_depth),
        ("sdw_hit_extra_refs", &snap.sdw_hit_refs),
        ("sdw_miss_extra_refs", &snap.sdw_miss_refs),
    ] {
        for (key, v) in [
            ("count", h.count()),
            ("sum", h.sum()),
            ("min", h.min()),
            ("max", h.max()),
            ("p50", h.percentile(0.50)),
            ("p99", h.percentile(0.99)),
        ] {
            assert_eq!(num(&["histograms", name, key]), v, "{name}.{key}");
        }
    }
    let Some(Json::Obj(extra)) = doc.get("extra") else {
        panic!("extra is an object");
    };
    let extras = snap.extras();
    assert_eq!(extra.len(), extras.len(), "one member per extra");
    for (key, v) in extras {
        assert_eq!(num(&["extra", &key]), v, "extra {key}");
    }

    assert!(snap.faults.total() > 0 && !snap.heatmap.is_empty());
    assert!(snap.extra("chaos.injected").is_some_and(|n| n > 0));
}

/// A default snapshot, the seed of every fleet fold, exports the same
/// keys as the snapshot of a machine whose recorder never ran.
#[test]
fn default_snapshot_exports_a_disabled_machines_keys() {
    fn keys(doc: &Json, prefix: &str, out: &mut Vec<String>) {
        match doc {
            Json::Obj(members) => {
                for (k, v) in members {
                    keys(v, &format!("{prefix}.{k}"), out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    keys(v, &format!("{prefix}.{i}"), out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }
    let key_sets = |snap: &multiring::metrics::MetricsSnapshot| {
        let mut json_keys = Vec::new();
        keys(&json::parse(&snap.to_json()).unwrap(), "", &mut json_keys);
        let csv_keys: Vec<String> = snap
            .to_csv()
            .lines()
            .map(|l| l.split_once(',').unwrap().0.to_string())
            .collect();
        (json_keys, csv_keys)
    };
    let disabled = Machine::new(4 * 1024, MachineConfig::default()).metrics_snapshot();
    assert!(!disabled.enabled);
    let (json_keys, csv_keys) = key_sets(&multiring::metrics::MetricsSnapshot::default());
    assert!(json_keys.contains(&".crossings.call_down".to_string()));
    assert!(csv_keys.contains(&"opcode_classes.no_operand".to_string()));
    assert_eq!((json_keys, csv_keys), key_sets(&disabled));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `MetricsSnapshot::merge` of two disjoint runs is the telemetry
    /// of their concatenation: counters that are linear in the gate-call
    /// count match a single run of the combined length, and every
    /// summed field equals the sum of its parts (histograms included).
    #[test]
    fn snapshot_merge_of_disjoint_runs_is_their_concatenation(a in 1u64..6, b in 1u64..6) {
        let run = |calls: u64| {
            let mut w = gate_call_world(calls);
            w.machine.enable_metrics();
            w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
            assert_eq!(w.machine.run(10_000), RunExit::Halted);
            w.machine.metrics_snapshot()
        };
        let sa = run(a);
        let sb = run(b);
        let concat = run(a + b);
        let mut merged = sa.clone();
        merged.merge(&sb);

        // Linear-in-calls counters equal the concatenated run's.
        for kind in [Crossing::CallDown, Crossing::ReturnUp] {
            prop_assert_eq!(merged.crossings.count(kind), concat.crossings.count(kind));
        }
        prop_assert_eq!(merged.crossings.matrix[4][1], concat.crossings.matrix[4][1]);
        prop_assert_eq!(merged.crossings.matrix[1][4], concat.crossings.matrix[1][4]);
        prop_assert_eq!(merged.call_cycles.count(), concat.call_cycles.count());

        // Summed fields equal the sum of their parts.
        prop_assert_eq!(merged.instructions, sa.instructions + sb.instructions);
        prop_assert_eq!(merged.cycles, sa.cycles + sb.cycles);
        prop_assert_eq!(merged.faults.total(), sa.faults.total() + sb.faults.total());
        let ring_changes = |s: &multiring::metrics::MetricsSnapshot| s.crossings.total_ring_changes();
        prop_assert_eq!(ring_changes(&merged), ring_changes(&sa) + ring_changes(&sb));
        prop_assert_eq!(merged.call_cycles.sum(), sa.call_cycles.sum() + sb.call_cycles.sum());
        prop_assert_eq!(merged.call_cycles.min(), sa.call_cycles.min().min(sb.call_cycles.min()));
        prop_assert_eq!(merged.call_cycles.max(), sa.call_cycles.max().max(sb.call_cycles.max()));

        // Percentiles over the merged histogram stay inside the
        // observed range.
        let p50 = merged.call_cycles.percentile(0.50);
        let p99 = merged.call_cycles.percentile(0.99);
        prop_assert!(merged.call_cycles.min() <= p50 && p50 <= p99);
        prop_assert!(p99 <= merged.call_cycles.max());

        // The per-segment heatmap merges by segment number: the code
        // segment's execute count is the sum of both runs'.
        let executes = |s: &multiring::metrics::MetricsSnapshot| {
            s.heatmap.get(10).map_or(0, |h| h.executes)
        };
        prop_assert_eq!(executes(&merged), executes(&sa) + executes(&sb));
    }
}
