//! The command line of the machine tools (`runasm`, `ringdbg`): the
//! flags that choose and shape the simulated world, one reader for flag
//! values, and one builder for either world. [`process_state`] is the
//! `ps` column that `ringdbg` and `ringsh` both print.
//!
//! ```text
//! [file.rasm] [--ring N] [--no-fastpath]
//!             [--procs N] [--quantum N] [--frames N] [--pages N] [--rounds N]
//!             [--chaos-seed N] [--chaos-rate N] [--chaos-plan <file>]
//! ```
//!
//! Without `--procs` the program file is loaded into a bare world: the
//! program at segment 10 (4 gates, executable in the chosen ring,
//! callable from ring 7), a 1024-word data segment at 11, the standard
//! per-ring stacks at segments 48–55, and a trap segment on which the
//! tool registers its fault handler. The processor starts at word 0 of
//! the program. Programs exit with `drl 0o777`.
//!
//! * `--ring N` — the ring the bare world's program runs in (default 4).
//! * `--no-fastpath` — run every step on the reference interpreter. The
//!   output is the same as the default fast-path run in everything but
//!   the `fastpath` counters of the metrics export.
//!
//! Multiprogramming flags (see `docs/KERNEL.md`):
//!
//! * `--procs N` — boot the full kernel instead of the bare world and run
//!   `N` processes, each in its own DBR-switched address space, under the
//!   preemptive round-robin scheduler. Each process gets a private paged
//!   data segment (segment 64, `--pages` pages) and runs a copy of the
//!   program file — or, when no file is given, the built-in page-storm
//!   sweep (`--rounds` rounds over every page).
//! * `--quantum N` — timer quantum in cycles (default 400).
//! * `--frames N` — physical-frame budget for demand paging; faults
//!   beyond the budget evict by CLOCK to a simulated drum (default 16;
//!   0 means unlimited, no paging pressure).
//! * `--pages N` — pages in each data segment (default 5; from one page
//!   more than the small-segment threshold, so the segment pages, to a
//!   full segment: [`StormSpec::PAGES`]).
//! * `--rounds N` — page-storm sweep rounds (default 30).
//!
//! Chaos flags (require `--procs`; see `docs/RELIABILITY.md`):
//!
//! * `--chaos-seed N` — arm a seeded fault-injection campaign: parity
//!   errors, descriptor/page-table/TLB corruption, drum errors, lost I/O
//!   completions and spurious timer runouts, drawn from a deterministic
//!   PRNG stream. Identical seeds produce bit-identical runs (and
//!   recordings).
//! * `--chaos-rate N` — mean cycles between injections (default 5000);
//!   on its own it arms the campaign of `--chaos-seed 0`.
//! * `--chaos-plan <file>` — explicit schedule instead of a campaign: one
//!   `CYCLE KIND` pair per line (kinds: `mem_parity`, `sdw_corrupt`,
//!   `ptw_corrupt`, `drum_read_error`, `drum_write_error`,
//!   `lost_io_completion`, `tlb_corrupt`, `spurious_timer`).
//!
//! Building a world is deterministic — the chaos engine included, since
//! it is armed before execution — so a recording made in one build
//! replays bit-for-bit in another.

use std::str::FromStr;

use ring_asm::Assembled;
use ring_core::addr::SegNo;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_cpu::machine::{Machine, MachineConfig};
use ring_cpu::testkit::{World, WORLD_WORDS};
use ring_cpu::FaultPlan;
use ring_metrics::MetricsSnapshot;
use ring_os::workload::{try_install_page_storm, try_install_storm_program, StormProc, StormSpec};
use ring_os::{System, SystemConfig};

/// Segment number of the program in the bare world.
pub const PROGRAM_SEGNO: SegNo = SegNo::from_bits(10);

/// Segment number of the bare world's data segment.
const DATA_SEGNO: SegNo = SegNo::from_bits(11);

/// The machine flags, with their defaults.
#[derive(Clone, Debug)]
pub struct MachineArgs {
    /// The program file.
    pub file: Option<String>,
    /// `--ring`: the bare world's ring of execution.
    pub ring: Ring,
    /// False under `--no-fastpath`.
    pub fastpath: bool,
    /// `--procs`: processes on the booted kernel; 0 builds the bare
    /// world.
    pub procs: usize,
    /// `--quantum`: timer quantum in cycles.
    pub quantum: u64,
    /// `--frames`: physical-frame budget, 0 for unlimited.
    pub frames: u32,
    /// `--pages`: pages in each storm data segment.
    pub pages: u32,
    /// `--rounds`: page-storm sweep rounds.
    pub rounds: u32,
    /// `--chaos-seed`: seed of a fault-injection campaign.
    pub chaos_seed: Option<u64>,
    /// `--chaos-rate`: mean cycles between campaign injections.
    pub chaos_rate: u64,
    /// `--chaos-plan`: file holding an explicit fault schedule.
    pub chaos_plan: Option<String>,
}

impl Default for MachineArgs {
    fn default() -> Self {
        MachineArgs {
            file: None,
            ring: Ring::R4,
            fastpath: true,
            procs: 0,
            quantum: 400,
            frames: 16,
            pages: 5,
            rounds: 30,
            chaos_seed: None,
            chaos_rate: 5_000,
            chaos_plan: None,
        }
    }
}

/// Reads the value of `flag` from `args` through `parse`. The error
/// names the flag and `what` it takes, whether the value is missing or
/// `parse` refuses it.
pub fn value<T>(
    args: &mut dyn Iterator<Item = String>,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    args.next()
        .as_deref()
        .and_then(parse)
        .ok_or_else(|| format!("{flag} takes {what}"))
}

/// Any number of type `T`.
pub fn number<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// A number of type `T` greater than zero.
pub fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    number(v).filter(|n| *n > T::default())
}

/// Any text (a file name).
pub fn text(v: &str) -> Option<String> {
    Some(v.to_string())
}

impl MachineArgs {
    /// Parses a command line. Each argument that is not a machine flag
    /// goes to `own` with the remaining arguments, so the tool can read
    /// its own flags and their values; `own` returns false for an
    /// argument it does not know. What neither takes is the program
    /// file, once, and any other argument is an error.
    pub fn parse<I>(
        args: I,
        mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<MachineArgs, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = args.into_iter();
        let mut m = MachineArgs::default();
        let mut rate_given = false;
        while let Some(flag) = args.next() {
            let a: &mut dyn Iterator<Item = String> = &mut args;
            match flag.as_str() {
                "--ring" => {
                    m.ring = value(a, &flag, "a number 0..=7", |v| {
                        number(v).and_then(Ring::new)
                    })?
                }
                "--no-fastpath" => m.fastpath = false,
                "--procs" => m.procs = value(a, &flag, "a process count >= 1", positive)?,
                "--quantum" => m.quantum = value(a, &flag, "a cycle count >= 1", positive)?,
                "--frames" => m.frames = value(a, &flag, "a frame count (0 = unlimited)", number)?,
                "--pages" => {
                    let (lo, hi) = StormSpec::PAGES.into_inner();
                    let what = format!("a page count {lo}..={hi}");
                    m.pages = value(a, &flag, &what, |v| {
                        number(v).filter(|n| StormSpec::PAGES.contains(n))
                    })?;
                }
                "--rounds" => m.rounds = value(a, &flag, "a round count >= 1", positive)?,
                "--chaos-seed" => m.chaos_seed = Some(value(a, &flag, "a seed number", number)?),
                "--chaos-rate" => {
                    m.chaos_rate = value(a, &flag, "a mean cycle interval >= 1", positive)?;
                    rate_given = true;
                }
                "--chaos-plan" => m.chaos_plan = Some(value(a, &flag, "a file name", text)?),
                _ if own(&flag, a)? => {}
                f if !f.starts_with('-') && m.file.is_none() => m.file = Some(f.to_string()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if m.file.is_none() && m.procs == 0 {
            return Err("no input file: name a .rasm file or give --procs N".to_string());
        }
        if m.chaos_plan.is_some() {
            if m.chaos_seed.is_some() {
                return Err("--chaos-seed and --chaos-plan are mutually exclusive".to_string());
            }
            if rate_given {
                return Err("--chaos-rate and --chaos-plan are mutually exclusive".to_string());
            }
        } else if rate_given {
            m.chaos_seed.get_or_insert(0);
        }
        if m.chaos() && m.procs == 0 {
            return Err("chaos injection requires --procs (recovery lives in the kernel)".into());
        }
        Ok(m)
    }

    /// True when the flags arm fault injection.
    pub fn chaos(&self) -> bool {
        self.chaos_seed.is_some() || self.chaos_plan.is_some()
    }

    /// Reads and assembles the program file, if one was named: its
    /// source text and image. The errors name the file.
    pub fn program(&self) -> Result<Option<(String, Assembled)>, String> {
        let Some(path) = &self.file else {
            return Ok(None);
        };
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let image = ring_asm::assemble(&source).map_err(|e| format!("{path}: {e}"))?;
        Ok(Some((source, image)))
    }

    /// The fault plan the chaos flags ask for, if any.
    fn chaos_plan(&self) -> Result<Option<FaultPlan>, String> {
        if let Some(path) = &self.chaos_plan {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            return Ok(Some(plan));
        }
        Ok(self.chaos_seed.map(|seed| FaultPlan::Campaign {
            seed,
            mean_interval: self.chaos_rate,
        }))
    }

    /// Builds the world the flags describe, reading and assembling the
    /// program once: the bare program world, or the booted kernel with
    /// the storm processes installed, the campaign armed and the quantum
    /// timer set. No recorder is on yet. A program too big for the bare
    /// world, or processes that do not fit the kernel's physical
    /// memory, are an error.
    ///
    /// # Panics
    ///
    /// Panics on values [`MachineArgs::parse`] refuses, such as a page
    /// count outside [`StormSpec::PAGES`].
    pub fn build(&self) -> Result<Session, String> {
        let program = self.program()?;
        if self.procs == 0 {
            let (_, image) = program.ok_or("the bare world needs a program file")?;
            let config = MachineConfig {
                fastpath: self.fastpath,
                ..MachineConfig::default()
            };
            let (world, trap) = program_world(&image, self.ring, config)?;
            return Ok(Session::Bare { world, trap, image });
        }
        let plan = self.chaos_plan()?;
        let mut sys = System::boot_with(SystemConfig {
            quantum: self.quantum,
            frame_budget: (self.frames > 0).then_some(self.frames),
            fastpath: self.fastpath,
            ..SystemConfig::default()
        });
        let spec = StormSpec {
            procs: self.procs,
            pages: self.pages,
            rounds: self.rounds,
        };
        let procs = match &program {
            Some((source, _)) => try_install_storm_program(&mut sys, &spec, source),
            None => try_install_page_storm(&mut sys, &spec),
        }
        .map_err(|e| {
            format!(
                "--procs {}: the processes do not fit physical memory: {e}",
                self.procs
            )
        })?;
        if let Some(plan) = plan {
            sys.enable_chaos(plan);
        }
        sys.machine.set_timer(Some(self.quantum));
        Ok(Session::Kernel { sys, procs })
    }
}

/// The bare program world: `image` at segment [`PROGRAM_SEGNO`] (4
/// gates), a data segment at [`DATA_SEGNO`], the standard stacks, the
/// trap segment, and the processor at word 0 of the program in `ring`.
/// Returns the trap segment, on which the caller registers its handler,
/// or an error when the image leaves too little memory for the rest.
fn program_world(
    image: &Assembled,
    ring: Ring,
    config: MachineConfig,
) -> Result<(World, SegNo), String> {
    let too_big = || {
        format!(
            "the {}-word program does not fit the bare world's {WORLD_WORDS} words of memory \
             beside its data, stack and trap segments",
            image.len()
        )
    };
    let mut world = World::with_config(config);
    let code = world
        .try_add_segment(
            PROGRAM_SEGNO.value(),
            SdwBuilder::procedure(ring, ring, Ring::R7)
                .gates(4)
                .bound_words(image.len().max(16)),
        )
        .ok_or_else(too_big)?;
    world
        .try_add_segment(
            DATA_SEGNO.value(),
            SdwBuilder::data(ring, ring).bound_words(1024),
        )
        .ok_or_else(too_big)?;
    world.try_add_standard_stacks(16).ok_or_else(too_big)?;
    let trap = world.try_add_trap_segment().ok_or_else(too_big)?;
    for (i, w) in image.words.iter().enumerate() {
        world.poke(code, i as u32, *w);
    }
    world.start(ring, code, 0);
    Ok((world, trap))
}

/// A world built from the machine flags.
pub enum Session {
    /// The bare program world (no `--procs`).
    Bare {
        /// The machine with the program loaded.
        world: World,
        /// The trap segment; the caller registers its handler on it.
        trap: SegNo,
        /// The assembled program.
        image: Assembled,
    },
    /// The booted kernel (`--procs`).
    Kernel {
        /// The system, ready to run.
        sys: System,
        /// The installed processes, in pid order.
        procs: Vec<StormProc>,
    },
}

impl Session {
    /// The simulated processor.
    pub fn machine(&self) -> &Machine {
        match self {
            Session::Bare { world, .. } => &world.machine,
            Session::Kernel { sys, .. } => &sys.machine,
        }
    }

    /// The simulated processor, for running and attaching recorders.
    pub fn machine_mut(&mut self) -> &mut Machine {
        match self {
            Session::Bare { world, .. } => &mut world.machine,
            Session::Kernel { sys, .. } => &mut sys.machine,
        }
    }

    /// The metrics snapshot; the kernel's carries the supervisor and
    /// scheduler sections too.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match self {
            Session::Bare { world, .. } => world.machine.metrics_snapshot(),
            Session::Kernel { sys, .. } => sys.metrics_snapshot(),
        }
    }
}

/// How process `pid` stands, as the tools' `ps` prints it: exited,
/// aborted (why), blocked (on what), ready, running or idle.
pub fn process_state(sys: &System, pid: usize) -> String {
    let st = sys.state();
    match st.processes[pid].aborted.as_deref() {
        Some("exit") => "exited".to_string(),
        Some(reason) => format!("aborted ({reason})"),
        None => match st.sched.blocked_reason(pid) {
            Some(reason) => format!("blocked ({reason})"),
            None if st.sched.is_ready(pid) => "ready".to_string(),
            None if st.current == pid => "running".to_string(),
            None => "idle".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<MachineArgs, String> {
        MachineArgs::parse(args.iter().map(|s| s.to_string()), |_, _| Ok(false))
    }

    #[test]
    fn defaults_and_values() {
        let m = parse(&["p.rasm"]).unwrap();
        assert_eq!(m.file.as_deref(), Some("p.rasm"));
        assert_eq!((m.ring, m.fastpath, m.procs), (Ring::R4, true, 0));
        let m = parse(&["--procs", "3", "--pages", "256", "--frames", "0"]).unwrap();
        assert_eq!((m.procs, m.pages, m.frames), (3, 256, 0));
        assert_eq!(m.file, None);
    }

    #[test]
    fn every_value_error_names_its_flag() {
        for (args, flag) in [
            (&["--ring", "8", "p"][..], "--ring"),
            (&["--procs", "0"], "--procs"),
            (&["--quantum"], "--quantum"),
            (&["--frames", "-1", "p"], "--frames"),
            (&["--procs", "1", "--pages", "4"], "--pages"),
            (&["--procs", "1", "--pages", "257"], "--pages"),
            (&["--rounds", "x"], "--rounds"),
            (&["--chaos-seed", "x"], "--chaos-seed"),
            (&["--chaos-rate", "0"], "--chaos-rate"),
            (&["--chaos-plan"], "--chaos-plan"),
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.starts_with(flag), "{args:?}: {e}");
        }
    }

    #[test]
    fn cross_checks() {
        assert!(parse(&[]).is_err(), "a file or --procs");
        assert!(parse(&["a", "b"]).is_err(), "one file");
        assert!(
            parse(&["--chaos-seed", "1", "p"]).is_err(),
            "chaos needs --procs"
        );
        let both = ["--procs", "1", "--chaos-seed", "1", "--chaos-plan", "f"];
        assert!(parse(&both).is_err());
        assert!(parse(&["--procs", "1", "--chaos-seed", "1"])
            .unwrap()
            .chaos());
        // A lone --chaos-rate arms the seed-0 campaign, as in fleetbench.
        let m = parse(&["--procs", "1", "--chaos-rate", "50"]).unwrap();
        assert_eq!((m.chaos_seed, m.chaos_rate), (Some(0), 50));
        let m = parse(&["--procs", "1", "--chaos-rate", "50", "--chaos-seed", "9"]).unwrap();
        assert_eq!((m.chaos_seed, m.chaos_rate), (Some(9), 50));
        assert!(
            parse(&["--chaos-rate", "50", "p"]).is_err(),
            "chaos needs --procs"
        );
        let rate_and_plan = ["--procs", "1", "--chaos-rate", "50", "--chaos-plan", "f"];
        assert!(parse(&rate_and_plan).is_err());
        assert!(!parse(&["--procs", "1"]).unwrap().chaos());
    }

    #[test]
    fn tool_flags_reach_the_tool_with_their_values() {
        let mut budget = None;
        let m = MachineArgs::parse(
            ["--budget", "7", "p", "--ring", "2"].map(String::from),
            |flag, args| match flag {
                "--budget" => {
                    budget = Some(value(args, flag, "a count", number::<u64>)?);
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .unwrap();
        assert_eq!((budget, m.ring), (Some(7), Ring::R2));
        assert_eq!(m.file.as_deref(), Some("p"));
    }
}
