//! End-to-end multiprogramming: DBR-switched processes sharing the
//! one simulated processor under a preemptive quantum and a physical
//! frame budget, with demand paging to a simulated drum.

use ring_core::addr::AbsAddr;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_cpu::recorder::{replay, run_recorded, Recorder};
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::boot::{System, SystemConfig};
use ring_os::process::KstEntry;
use ring_os::workload::{
    install_page_storm, try_install_gate_storm, try_install_page_storm, GateStormSpec, StormProc,
    StormSpec,
};
use ring_segmem::paging::{Ptw, PAGE_WORDS};
use ring_segmem::PageKey;

fn build(spec: StormSpec, frames: u32, quantum: u64) -> (System, Vec<StormProc>) {
    let cfg = SystemConfig {
        quantum,
        frame_budget: Some(frames),
        ..SystemConfig::default()
    };
    let mut sys = System::boot_with(cfg);
    let procs = install_page_storm(&mut sys, &spec);
    sys.machine.set_timer(Some(quantum));
    (sys, procs)
}

/// The scheduler's dispatches as the span log holds them: the pid
/// dispatched and the cycle of the dispatch, in order.
fn dispatches(sys: &mut System) -> Vec<(u32, u64)> {
    sys.take_span_events()
        .into_iter()
        .filter_map(|e| match e {
            ring_trace::SpanEvent::Sched { pid, cycles } => Some((pid, cycles)),
            _ => None,
        })
        .collect()
}

#[test]
fn four_process_storm_completes_under_frame_pressure() {
    let spec = StormSpec {
        procs: 4,
        pages: 5,
        rounds: 30,
    };
    // 16 frames for a 20-page combined working set: the processes must
    // continually evict each other.
    let (mut sys, procs) = build(spec, 16, 400);
    let exit = sys.machine.run(5_000_000);
    assert_eq!(exit, RunExit::Halted, "storm should run to completion");
    let st = sys.state();
    for p in &procs {
        let ps = &st.processes[p.pid];
        assert_eq!(
            ps.aborted.as_deref(),
            Some("exit"),
            "process {} should exit cleanly",
            p.pid
        );
        assert!(
            ps.preemptions >= 1,
            "process {} should lose the processor at least once",
            p.pid
        );
        assert!(
            ps.page_faults >= 1,
            "process {} should take at least one page fault",
            p.pid
        );
    }
    let sc = st.sched.stats;
    assert!(sc.context_switches > 0, "processes should interleave");
    assert!(
        sc.evictions > 0,
        "20 pages under a 16-frame budget must evict"
    );
    assert!(
        sc.page_faults_major > 0,
        "evicted pages must fault back in from the drum"
    );
    assert!(
        sc.page_faults_minor >= 20,
        "every page's first touch is a minor fault"
    );
    assert!(!st.backing.is_empty() || st.backing.writes() > 0);
    // The scheduler section reaches the metrics snapshot.
    let json = sys.metrics_json();
    assert!(json.contains("\"scheduler\""));
    assert!(json.contains("\"context_switches\""));
}

#[test]
fn storm_sweeps_increment_every_page() {
    // One process, frames fewer than its pages: every round re-faults
    // pages back in through the drum, and the idler sleeps out each
    // transfer (no other process is ready). The arithmetic must still
    // be exact: each page's first word ends at seed + rounds.
    let spec = StormSpec {
        procs: 1,
        pages: 5,
        rounds: 10,
    };
    let (mut sys, procs) = build(spec, 2, 1_000);
    let exit = sys.machine.run(2_000_000);
    assert_eq!(exit, RunExit::Halted);
    let st = sys.state();
    assert_eq!(st.processes[0].aborted.as_deref(), Some("exit"));
    assert!(st.sched.stats.page_faults_major > 0);
    assert!(
        st.sched.stats.idle_cycles > 0,
        "page waits idle the machine"
    );
    // Read the final page contents back: resident pages from their
    // frames, evicted pages from the drum.
    let entry = st.processes[0]
        .lookup(procs[0].data_segno)
        .expect("storm segment initiated");
    let seg = entry.id.0;
    let sdw = sys.read_sdw(0, procs[0].data_segno);
    for page in 0..spec.pages {
        let key = ring_segmem::PageKey { seg, page };
        let st = sys.state();
        let want = 1 + u64::from(spec.rounds);
        let got = if let Some(words) = st.backing.peek(key) {
            words[0].raw()
        } else {
            let ptw = ring_segmem::paging::Ptw::unpack(
                sys.machine
                    .phys()
                    .peek(sdw.addr.wrapping_add(page))
                    .expect("ptw"),
            );
            assert!(ptw.present, "page neither on drum nor resident");
            sys.machine
                .phys()
                .peek(ring_core::addr::AbsAddr::from_bits(u64::from(
                    ptw.frame * ring_segmem::paging::PAGE_WORDS,
                )))
                .expect("frame word")
                .raw()
        };
        assert_eq!(got, want, "page {page} first word");
    }
}

#[test]
fn three_process_storm_replays_bit_identically() {
    let spec = StormSpec {
        procs: 3,
        pages: 5,
        rounds: 20,
    };
    // Record a run that takes page faults, evictions, and timer
    // preemptions.
    let (mut a, _) = build(spec, 8, 300);
    a.enable_spans();
    let mut rec = Recorder::start(&a.machine, "page-storm", 10_000);
    let exit = run_recorded(&mut a.machine, 5_000_000, &mut rec);
    assert_eq!(exit, RunExit::Halted);
    {
        let st = a.state();
        assert!(st.sched.stats.preemptions > 0, "recording has preemptions");
        assert!(st.sched.stats.evictions > 0, "recording has evictions");
    }
    let recording = rec.finish(&a.machine);

    // Replay in an identically rebuilt world: the host-side kernel
    // state re-evolves from the same start, and the machine must match
    // the recording bit for bit — including every timer-interrupt
    // delivery point, which the final image's cycle and register state
    // pins down exactly.
    let (mut b, _) = build(spec, 8, 300);
    b.enable_spans();
    let report = replay(&mut b.machine, &recording).expect("replay applies");
    assert!(report.ok, "divergence: {:?}", report.mismatch);
    // The replayed kernel made the same scheduling decisions at the
    // same cycles.
    let schedule = dispatches(&mut a);
    assert!(schedule.len() > 1, "the recording switches processes");
    assert_eq!(
        schedule,
        dispatches(&mut b),
        "schedule must replay identically"
    );
}

#[test]
fn scheduler_paints_per_process_spans() {
    let spec = StormSpec {
        procs: 2,
        pages: 5,
        rounds: 10,
    };
    let (mut sys, _) = build(spec, 4, 300);
    sys.enable_spans();
    let exit = sys.machine.run(2_000_000);
    assert_eq!(exit, RunExit::Halted);
    let events = sys.take_span_events();
    let mut pids_seen = std::collections::BTreeSet::new();
    for ev in &events {
        if let ring_trace::SpanEvent::Sched { pid, .. } = ev {
            pids_seen.insert(*pid);
        }
    }
    assert_eq!(
        pids_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "both processes get scheduler spans"
    );
    let doc = ring_trace::perfetto::chrome_trace_json(&events, sys.machine.cycles());
    assert!(doc.contains("\"run p0\""));
    assert!(doc.contains("\"run p1\""));
}

#[test]
fn storm_matches_with_fastpath_off() {
    // The scheduler, pager, and idler must be invisible to the
    // fastpath ablation: both machines make the same decisions and
    // retire the same instructions.
    let spec = StormSpec {
        procs: 3,
        pages: 5,
        rounds: 10,
    };
    let run = |fastpath: bool| {
        let cfg = SystemConfig {
            quantum: 350,
            frame_budget: Some(8),
            fastpath,
            ..SystemConfig::default()
        };
        let mut sys = System::boot_with(cfg);
        install_page_storm(&mut sys, &spec);
        sys.enable_spans();
        sys.machine.set_timer(Some(350));
        let exit = sys.machine.run(5_000_000);
        assert_eq!(exit, RunExit::Halted);
        (
            sys.machine.stats().instructions,
            dispatches(&mut sys),
            sys.state().sched.stats,
        )
    };
    let (instr_on, trace_on, stats_on) = run(true);
    let (instr_off, trace_off, stats_off) = run(false);
    assert_eq!(instr_on, instr_off, "instruction counts must match");
    assert_eq!(trace_on, trace_off, "schedule traces must match");
    assert_eq!(stats_on, stats_off, "scheduler counters must match");
}

#[test]
fn processes_keep_private_page_contents() {
    // Every process seeds its pages with pid+1 and adds `rounds`; if
    // paging ever let one process's write land in another's frame, the
    // final sums would be off.
    let spec = StormSpec {
        procs: 3,
        pages: 5,
        rounds: 15,
    };
    let (mut sys, procs) = build(spec, 4, 250);
    let exit = sys.machine.run(5_000_000);
    assert_eq!(exit, RunExit::Halted);
    let sdws: Vec<_> = procs
        .iter()
        .map(|p| sys.read_sdw(p.pid, p.data_segno))
        .collect();
    let st = sys.state();
    for (p, sdw) in procs.iter().zip(&sdws) {
        let seg = st.processes[p.pid].lookup(p.data_segno).unwrap().id.0;
        let want = p.pid as u64 + 1 + u64::from(spec.rounds);
        for page in 0..spec.pages {
            let key = ring_segmem::PageKey { seg, page };
            let got = if let Some(words) = st.backing.peek(key) {
                words[0].raw()
            } else {
                let ptw = ring_segmem::paging::Ptw::unpack(
                    sys.machine
                        .phys()
                        .peek(sdw.addr.wrapping_add(page))
                        .expect("ptw"),
                );
                assert!(ptw.present);
                sys.machine
                    .phys()
                    .peek(ring_core::addr::AbsAddr::from_bits(u64::from(
                        ptw.frame * ring_segmem::paging::PAGE_WORDS,
                    )))
                    .expect("frame word")
                    .raw()
            };
            assert_eq!(got, want, "process {} page {page}", p.pid);
        }
    }
}

#[test]
fn gate_storm_processes_hammer_ring1_and_exit() {
    let cfg = SystemConfig {
        quantum: 400,
        ..SystemConfig::default()
    };
    let mut sys = System::boot_with(cfg);
    let spec = GateStormSpec {
        procs: 3,
        rounds: 20,
    };
    let procs = ring_os::workload::install_gate_storm(&mut sys, &spec);
    sys.enable_metrics();
    sys.machine.set_timer(Some(400));
    let exit = sys.machine.run(5_000_000);
    assert_eq!(exit, RunExit::Halted, "gate storm should run to completion");
    let st = sys.state();
    for p in &procs {
        let ps = &st.processes[p.pid];
        assert_eq!(
            ps.aborted.as_deref(),
            Some("exit"),
            "process {} should exit cleanly",
            p.pid
        );
        assert_eq!(
            ps.gate_calls,
            u64::from(spec.rounds),
            "process {} should make one gate call per round",
            p.pid
        );
    }
    assert!(
        st.sched.stats.context_switches > 0,
        "processes should interleave under the quantum"
    );
}

#[test]
fn boot_from_image_replays_bit_identically_and_stays_clean() {
    let cfg = SystemConfig {
        quantum: 400,
        phys_words: 1 << 17,
        frame_budget: Some(8),
        ..SystemConfig::default()
    };
    let spec = StormSpec {
        procs: 2,
        pages: 5,
        rounds: 10,
    };
    // Prototype: boot, install, freeze — never run.
    let mut proto = System::boot_with(cfg);
    install_page_storm(&mut proto, &spec);
    let image = proto.freeze();

    let run = |mut sys: System| {
        install_page_storm(&mut sys, &spec);
        sys.enable_metrics();
        sys.machine.set_timer(Some(400));
        let exit = sys.machine.run(5_000_000);
        assert_eq!(exit, RunExit::Halted);
        (sys.metrics_json(), sys.machine.phys().dirty_pages())
    };

    let (flat_json, _) = run(System::boot_with(cfg));
    let mut cow_sys = System::boot_from_image(&image);
    assert!(cow_sys.machine.phys().is_cow());
    let before_run = cow_sys.machine.phys().dirty_pages();
    assert_eq!(
        before_run, 0,
        "replaying the identical world build must dirty no pages"
    );
    install_page_storm(&mut cow_sys, &spec);
    assert_eq!(
        cow_sys.machine.phys().dirty_pages(),
        0,
        "replaying the identical workload install must dirty no pages"
    );
    cow_sys.enable_metrics();
    cow_sys.machine.set_timer(Some(400));
    let exit = cow_sys.machine.run(5_000_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(
        cow_sys.metrics_json(),
        flat_json,
        "copy-on-write boot must be architecturally invisible"
    );
    let dirty = cow_sys.machine.phys().dirty_pages() as usize;
    let total = image.words().div_ceil(1024);
    assert!(
        dirty < total / 2,
        "execution should dirty a minority of the image ({dirty}/{total})"
    );
}

/// The words of page `page` of `pid`'s segment `segno` wherever the
/// page lives: on the drum, or in the frame its PTW names.
fn page_words(sys: &System, pid: usize, segno: u32, page: u32) -> Vec<Word> {
    let st = sys.state();
    let seg = st.processes[pid].lookup(segno).expect("initiated").id.0;
    if let Some(words) = st.backing.peek(PageKey { seg, page }) {
        return words.to_vec();
    }
    let sdw = sys.read_sdw(pid, segno);
    let phys = sys.machine.phys();
    let ptw = Ptw::unpack(phys.peek(sdw.addr.wrapping_add(page)).expect("ptw"));
    assert!(ptw.present, "page {page} neither on the drum nor resident");
    let mut words = Vec::new();
    phys.peek_into(
        AbsAddr::from_bits(u64::from(ptw.frame * PAGE_WORDS)),
        PAGE_WORDS as usize,
        &mut words,
    )
    .expect("frame in memory");
    words
}

#[test]
fn processes_keep_private_page_contents_on_copy_on_write_memory() {
    // The fleet's backing: members boot over a frozen image, and only
    // there does a page coming in from the drum trade places with the
    // victim instead of being copied. Every word of every page must
    // still hold its own process's value.
    let cfg = SystemConfig {
        quantum: 250,
        phys_words: 1 << 17,
        frame_budget: Some(4),
        ..SystemConfig::default()
    };
    let spec = StormSpec {
        procs: 3,
        pages: 5,
        rounds: 15,
    };
    let mut proto = System::boot_with(cfg);
    install_page_storm(&mut proto, &spec);
    let image = proto.freeze();
    let mut sys = System::boot_from_image(&image);
    assert!(sys.machine.phys().is_cow());
    let procs = install_page_storm(&mut sys, &spec);
    sys.machine.set_timer(Some(250));
    assert_eq!(sys.machine.run(5_000_000), RunExit::Halted);
    let sched = sys.state().sched.stats;
    assert!(sched.page_faults_major > 0 && sched.evictions > 0);
    for p in &procs {
        let seed = p.pid as u64 + 1;
        for page in 0..spec.pages {
            let words = page_words(&sys, p.pid, p.data_segno, page);
            assert_eq!(
                words[0].raw(),
                seed + u64::from(spec.rounds),
                "process {} page {page} swept word",
                p.pid
            );
            assert!(
                words[1..].iter().all(|w| w.raw() == seed),
                "process {} page {page} kept its other words",
                p.pid
            );
        }
    }
}

#[test]
fn a_recycled_frame_shows_none_of_its_previous_owner() {
    // A one-process storm fills both frames of a 2-frame budget with
    // pages of ones, then exits. A second process owns a 4 100-word
    // zero segment: its last page holds 4 file words, but the segment
    // bound (16-word granules) reaches word 4 111. Reading word 4 100
    // takes a minor fault into a frame just taken from the storm; the
    // words past the file image must read zero, not the storm's ones.
    let spec = StormSpec {
        procs: 1,
        pages: 5,
        rounds: 2,
    };
    let (mut sys, _) = build(spec, 2, 1_000);
    assert_eq!(sys.machine.run(2_000_000), RunExit::Halted);

    let pid = sys.login("reader");
    let id = sys.create_segment(
        "/reader/zeros",
        Acl::single(
            AclEntry::new("reader", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0)
                .expect("well-formed ACL"),
        ),
        vec![Word::ZERO; 4_100],
    );
    let segno = {
        let proc = &mut sys.state_mut().processes[pid];
        let segno = proc.alloc_segno().expect("segment number");
        proc.kst.insert(segno, KstEntry { id, loaded: false });
        segno
    };
    let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
        .present(false)
        .bound_words(4_100)
        .build();
    sys.install_sdw(pid, segno, &sdw);
    let source = format!(
        "        eap pr4, p,*\n        lda pr4|0\n        drl 0o{:o}\np:      its 4, {segno}, 4100\n",
        ring_os::traps::EXIT_CODE
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &source);
    sys.machine.set_timer(None);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 100_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(sys.state().processes[pid].aborted.as_deref(), Some("exit"));
    assert!(
        sys.state().sched.stats.evictions > 0,
        "the frame was recycled"
    );
    assert_eq!(sys.machine.a(), Word::ZERO, "word 4100 of a zero segment");
}

/// Storms whose processes do not fit physical memory are errors of the
/// fallible installers, naming the first process that did not fit; the
/// processes before it stay logged in, and a refused login changes
/// nothing.
#[test]
fn storms_too_big_for_physical_memory_are_errors() {
    let mut sys = System::boot();
    let gate = GateStormSpec {
        procs: 250,
        rounds: 1,
    };
    let e = try_install_gate_storm(&mut sys, &gate).expect_err("250 gate processes");
    assert!(e.starts_with("process 239 needs 8704 words"), "{e}");
    assert_eq!(sys.state().processes.len(), 239);
    let left = sys.alloc_mut().remaining();
    assert!(sys.try_login("late").is_err());
    assert_eq!(sys.alloc_mut().remaining(), left);
    assert_eq!(sys.state().processes.len(), 239);

    let mut sys = System::boot();
    let page = StormSpec {
        procs: 250,
        pages: 5,
        rounds: 1,
    };
    let e = try_install_page_storm(&mut sys, &page).expect_err("250 page-storm processes");
    assert!(e.starts_with("process 239 needs 8704 words"), "{e}");
    let fits = StormSpec { procs: 239, ..page };
    assert_eq!(
        try_install_page_storm(&mut System::boot(), &fits).map(|p| p.len()),
        Ok(239)
    );
}
