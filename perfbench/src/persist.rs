//! `persist_apps` and `persist_stream_spine`: host persistent execution
//! of four threads with checkpoints, crashes and recoveries.
//!
//! One single-threaded closed loop drives a `PersistentProcess`: each
//! round executes one 10 ms interval of every thread's stack stores
//! (each store goes to the thread's `DirtyTracker` and to the process),
//! then takes one whole-process checkpoint: per-thread `flush`,
//! `inspect_and_clear` over the watermark window, and `commit`. After
//! the checkpoints of [`CRASH_AFTER`] half of the next interval runs,
//! the process crashes, recovers, and resumes from the recovered
//! instruction pointer. The only other threads are the commit workers
//! `PersistentProcess::commit` spawns itself.
//!
//! The stores come from the trace generators, recorded during set-up
//! for [`Spec::period`] intervals per thread and replayed cyclically.
//! A stored value depends on its address and its position in that
//! cycle, so after the first cycle the uninterrupted execution's state
//! repeats with the period: set-up records the state after every
//! interval of the first two cycles, and every check compares against
//! one of those snapshots.

use std::collections::BTreeMap;
use std::time::Instant;

use prosper_core::bitmap::CopyRun;
use prosper_core::recovery::{commit_cost, PersistentProcess};
use prosper_core::{DirtyTracker, SpineConfig, TrackerConfig};
use prosper_gemos::image::MemoryImage;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_trace::interval::IntervalCollector;
use prosper_trace::micro::{MicroBench, MicroSpec};
use prosper_trace::record::TraceEvent;
use prosper_trace::source::TraceSource;
use prosper_trace::stack::{StackModel, DEFAULT_STACK_LIMIT, DEFAULT_STACK_TOP};
use prosper_trace::workloads::{Workload, WorkloadProfile};

use crate::calib::{calibrated, Calibrator, CopyPass, COPY_PASS_NS, PASS_NS};
use crate::report::{beyond, median, percentile, ratio, Checks, Report};
use crate::sim::INTERVAL_10MS;
use crate::spans::{SpanId, Tracer};
use crate::{mix, Budget, Layered};

/// Threads of the persistent process.
pub(crate) const THREADS: usize = 4;

/// Distance between the threads' stack tops (and their bitmaps).
const STACK_STRIDE: u64 = 16 << 20;

/// Bitmap base of thread 0.
const BITMAP_BASE: u64 = 0x1000_0000;

/// Stack array each Stream thread rewrites.
const STREAM_ARRAY_BYTES: u64 = 256 << 10;

/// Set-ups per run: the first makes the inputs, the others, one every
/// [`RESETUP_BLOCKS`] blocks, must reproduce them.
const SETUPS: usize = 8;

/// Blocks between two set-ups.
const RESETUP_BLOCKS: u64 = 8;

/// Untraced blocks a run measures at least.
const MIN_BLOCKS: usize = 8;

/// Rounds in a block: a multiple of both periods, so that with
/// [`CRASH_AFTER`] every block does the same work. A traced run alternates
/// untraced and traced blocks; the first block of every run is warm-up
/// and is not measured.
const BLOCK: u64 = 16;

/// Calibration passes of each kind between two blocks.
const BOUNDARY_PASSES: usize = 3;

/// Host times of the calibration passes run between two blocks.
#[derive(Clone, Debug, Default)]
struct Passes {
    lookup: Vec<f64>,
    copy: Vec<f64>,
}

/// A crash follows the checkpoints whose count modulo [`BLOCK`] is one
/// of these. Crashes alternate 7 and 9 checkpoints apart: the default
/// spine policy merges every second commit after a recovery, so an odd
/// distance leaves one unmerged batch per thread for recovery to fold.
const CRASH_AFTER: [u64; 2] = [7, 0];

/// What the threads execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The three application profiles, thread `t` running profile
    /// `t % 3`, each with its own seed and stack layout.
    Apps,
    /// `MicroSpec::Stream` over a 256 KiB stack array per thread.
    Stream,
}

/// One persistent-execution workload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// What the threads execute.
    pub kind: Kind,
    /// Spine mode (`new_with_spine(SpineConfig::default())`) instead of
    /// eager apply.
    pub spine: bool,
    /// Intervals recorded per thread and replayed cyclically.
    pub period: usize,
}

impl Spec {
    /// The workload called `name`.
    pub(crate) fn named(name: &str) -> Option<Self> {
        match name {
            "persist_apps" => Some(Self {
                name: "persist_apps",
                kind: Kind::Apps,
                spine: false,
                period: 16,
            }),
            "persist_stream_spine" => Some(Self {
                name: "persist_stream_spine",
                kind: Kind::Stream,
                spine: true,
                period: 8,
            }),
            _ => None,
        }
    }
}

/// The stack stores of one recorded interval of one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct IntervalInput {
    /// Store addresses.
    pub addrs: Vec<u64>,
    /// Store sizes.
    pub sizes: Vec<u32>,
    /// The stored bytes, store after store.
    pub values: Vec<u8>,
    /// Trace events of the interval, stores and everything else.
    pub events: u64,
    /// Distinct dirty bytes at the tracker's 8-byte granularity: what
    /// the checkpoint after this interval must copy.
    pub dirty_bytes: u64,
}

/// One thread's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ThreadInput {
    /// Reserved stack range.
    pub range: VirtRange,
    /// The part of the range the stores touch; checks compare it.
    pub written: VirtRange,
    /// The recorded intervals.
    pub intervals: Vec<IntervalInput>,
}

/// Every input of a run, built from the seed during set-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Inputs {
    /// Per-thread inputs.
    pub threads: Vec<ThreadInput>,
    /// `snapshots[g][t]`: thread `t`'s stack after `g` intervals of
    /// uninterrupted execution, for `g < 2 * period`.
    pub snapshots: Vec<Vec<MemoryImage>>,
}

/// Host time of generating the inputs' traces.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GenTiming {
    /// Interval collection over the trace sources.
    pub trace_ns: u64,
    /// Trace events collected.
    pub events: u64,
}

impl Inputs {
    /// Records the inputs of `spec` for `seed`.
    pub(crate) fn generate(spec: &Spec, seed: u64) -> (Self, GenTiming) {
        let mut timing = GenTiming::default();
        let threads = (0..THREADS)
            .map(|t| thread_input(spec, seed, t, &mut timing))
            .collect::<Vec<_>>();
        let mut images = vec![MemoryImage::new(); THREADS];
        let mut snapshots = vec![images.clone()];
        for g in 1..2 * spec.period {
            for (image, input) in images.iter_mut().zip(&threads) {
                let iv = &input.intervals[(g - 1) % spec.period];
                let mut off = 0;
                for (&addr, &size) in iv.addrs.iter().zip(&iv.sizes) {
                    let end = off + size as usize;
                    image.write(VirtAddr::new(addr), &iv.values[off..end]);
                    off = end;
                }
            }
            snapshots.push(images.clone());
        }
        (Self { threads, snapshots }, timing)
    }

    /// The uninterrupted execution's stacks after `g` intervals.
    pub(crate) fn snapshot(&self, g: u64) -> &[MemoryImage] {
        let period = self.threads[0].intervals.len() as u64;
        let idx = if g < 2 * period {
            g
        } else {
            period + (g - period) % period
        };
        &self.snapshots[idx as usize]
    }

    /// The recorded interval thread `t` executes as interval `g`.
    pub(crate) fn interval(&self, t: usize, g: u64) -> &IntervalInput {
        let ivs = &self.threads[t].intervals;
        &ivs[(g % ivs.len() as u64) as usize]
    }
}

/// Byte stored at `addr` by the interval at cycle position `pos`.
fn value_byte(seed: u64, pos: usize, addr: u64) -> u8 {
    (mix(seed ^ addr, pos as u64) >> 56) as u8
}

fn thread_input(spec: &Spec, seed: u64, t: usize, timing: &mut GenTiming) -> ThreadInput {
    let tseed = mix(seed, 100 + t as u64);
    let shift = t as u64 * STACK_STRIDE;
    // The generator's own stack range; stores are moved down by `shift`
    // so that every thread has its own stack.
    let source: Box<dyn TraceSource> = match spec.kind {
        Kind::Apps => {
            let profile = WorkloadProfile::applications()[t % 3].clone();
            let stack = StackModel::with_layout(
                t as u32,
                VirtAddr::new(DEFAULT_STACK_TOP - shift),
                DEFAULT_STACK_LIMIT,
            );
            Box::new(Workload::with_stack(profile, tseed, stack))
        }
        Kind::Stream => {
            let mut bench = MicroBench::new(
                MicroSpec::Stream {
                    array_bytes: STREAM_ARRAY_BYTES,
                },
                tseed,
            );
            // Stream is sequential: the seed picks where in the array
            // the first interval starts.
            for _ in 0..mix(seed, 200 + t as u64) % 4096 {
                bench.next_event();
            }
            Box::new(bench)
        }
    };
    let gen_range = source.stack().reserved_range();
    let gen_shift = match spec.kind {
        Kind::Apps => 0,
        Kind::Stream => shift,
    };
    let range = VirtRange::new(gen_range.start() - gen_shift, gen_range.end() - gen_shift);
    let mut collector = IntervalCollector::new(source, INTERVAL_10MS);
    let mut lowest = range.end().raw();
    let intervals = (0..spec.period)
        .map(|pos| {
            let t0 = Instant::now();
            let interval = collector.next_interval();
            timing.trace_ns += t0.elapsed().as_nanos() as u64;
            timing.events += interval.events.len() as u64;
            let mut iv = IntervalInput {
                addrs: Vec::new(),
                sizes: Vec::new(),
                values: Vec::new(),
                events: interval.events.len() as u64,
                dirty_bytes: 0,
            };
            let mut granules = Vec::new();
            for ev in &interval.events {
                let TraceEvent::Access(a) = ev else { continue };
                let start = a.vaddr.raw();
                let end = start + u64::from(a.size);
                if !a.is_stack_store()
                    || start < gen_range.start().raw()
                    || end > gen_range.end().raw()
                {
                    continue;
                }
                let addr = start - gen_shift;
                iv.addrs.push(addr);
                iv.sizes.push(a.size);
                iv.values
                    .extend((addr..addr + u64::from(a.size)).map(|b| value_byte(seed, pos, b)));
                granules.extend(addr / 8..=(addr + u64::from(a.size) - 1) / 8);
                lowest = lowest.min(addr);
            }
            granules.sort_unstable();
            granules.dedup();
            iv.dirty_bytes = granules.len() as u64 * 8;
            iv
        })
        .collect();
    ThreadInput {
        range,
        written: VirtRange::new(VirtAddr::new(lowest & !7), range.end()),
        intervals,
    }
}

/// The commit cost `recovery::commit_cost` predicts for one commit of
/// `runs` at `workers` workers, as `PersistentProcess::commit` models
/// it: both parallel phases under work stealing, the seal with its
/// per-thread bookkeeping, the register tail, and the workers' spawns.
pub(crate) fn modeled_commit_ns(
    runs: &BTreeMap<u32, Vec<CopyRun>>,
    workers: usize,
    spine: bool,
) -> u64 {
    let phase = |per_tid: &dyn Fn(&[CopyRun]) -> u64| {
        let workers = workers.clamp(1, runs.len().max(1));
        let mut load = vec![0u64; workers];
        for r in runs.values() {
            if let Some(min) = load.iter_mut().min() {
                *min += per_tid(r);
            }
        }
        commit_cost::PHASE_BASE_NS + load.into_iter().max().unwrap_or(0)
    };
    let cost = |per_run: u64, per_byte: u64| {
        move |r: &[CopyRun]| r.iter().map(|c| per_run + c.len * per_byte).sum::<u64>()
    };
    let spawn = if workers > 1 {
        workers as u64 * commit_cost::WORKER_SPAWN_NS
    } else {
        0
    };
    let phase_two = if spine {
        phase(&|_| commit_cost::BATCH_APPEND_NS)
    } else {
        phase(&cost(commit_cost::APPLY_RUN_NS, commit_cost::APPLY_BYTE_NS))
    };
    let n = runs.len() as u64;
    2 * spawn
        + phase(&cost(commit_cost::STAGE_RUN_NS, commit_cost::STAGE_BYTE_NS))
        + commit_cost::SEAL_NS
        + n * commit_cost::BOOKKEEP_SLOT_NS
        + phase_two
        + n * commit_cost::REGISTER_SLOT_NS
}

/// The model's prediction at the worker count `commit` picks: the
/// cheapest one up to `cap`.
pub(crate) fn predicted_commit_ns(
    runs: &BTreeMap<u32, Vec<CopyRun>>,
    cap: usize,
    spine: bool,
) -> u64 {
    (1..=cap.max(1))
        .map(|w| modeled_commit_ns(runs, w, spine))
        .min()
        .unwrap_or(0)
}

/// What the same seed must reproduce exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Trail {
    /// Dirty bytes committed by each checkpoint.
    pub dirty_bytes: Vec<u64>,
    /// Sequence each recovery landed on.
    pub recovered: Vec<u64>,
}

/// Time, work and samples of one block of rounds.
#[derive(Clone, Debug, Default)]
struct Block {
    wall_ns: u64,
    stores: u64,
    events: u64,
    /// Bytes the committed intervals stored.
    stored_bytes: u64,
    /// Bytes their checkpoints copied.
    dirty_bytes: u64,
    ckpt_us: Vec<f64>,
    recover_us: Vec<f64>,
    /// Median host time of the lookup passes before and after the
    /// block.
    pass_ns: f64,
    /// Median host time of the copy passes before and after the block.
    copy_pass_ns: f64,
}

impl Block {
    /// `work` per calibrated host second.
    fn per_s(&self, work: u64) -> f64 {
        ratio(
            work as f64 * 1e9,
            calibrated(self.wall_ns as f64, self.pass_ns, PASS_NS),
        )
    }

    /// The checkpoint stalls, calibrated by the copy passes.
    fn calibrated_ckpt_us(&self) -> impl Iterator<Item = f64> + '_ {
        let pass = self.copy_pass_ns;
        self.ckpt_us
            .iter()
            .map(move |&u| calibrated(u, pass, COPY_PASS_NS))
    }

    /// The recovery times, calibrated by the lookup passes.
    fn calibrated_recover_us(&self) -> impl Iterator<Item = f64> + '_ {
        let pass = self.pass_ns;
        self.recover_us
            .iter()
            .map(move |&u| calibrated(u, pass, PASS_NS))
    }
}

/// Median over `blocks` of `f`.
fn median_of(blocks: &[&Block], f: impl Fn(&Block) -> f64) -> f64 {
    median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>())
}

/// Per-layer sums over the traced rounds.
#[derive(Clone, Debug, Default)]
struct LayerSums {
    observe_ns: u64,
    record_ns: u64,
    stores: u64,
    flush_ns: u64,
    inspect_ns: u64,
    inspect_calls: u64,
    words_read: u64,
    runs: u64,
    dirty_bytes: u64,
    ckpts: u64,
    commit_ns: u64,
    model_err_pct: Vec<f64>,
    merge_ns: u64,
    merges: u64,
    append_ns: u64,
    appends: u64,
    spine_bytes: u64,
    recover_ns: u64,
    recoveries: u64,
    batches_folded: u64,
}

/// The persistent process, its trackers and the driver's position.
struct Driver<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    process: PersistentProcess,
    trackers: Vec<DirtyTracker>,
    /// Lookup-table bitmap operations of trackers dropped at a crash.
    dropped_bitmap_ops: u64,
    /// Stores the trackers observed, in every round.
    observed: u64,
    /// Intervals committed: the next interval to execute.
    g: u64,
    /// Sequence of the last commit.
    seq: u64,
    checkpoints: u64,
    workers_cap: usize,
    checks: Checks,
    trail: Trail,
    /// Measured blocks of rounds, with how they were measured.
    blocks: Vec<(Mode, Block)>,
    /// The block being measured.
    current: Block,
    cal: Calibrator,
    copy: CopyPass,
    /// The calibration passes run before `current`.
    passes_before: Passes,
    sums: LayerSums,
    tracer: Tracer,
}

fn trackers(inputs: &Inputs) -> Vec<DirtyTracker> {
    inputs
        .threads
        .iter()
        .enumerate()
        .map(|(t, input)| {
            let mut tr = DirtyTracker::new(TrackerConfig::default());
            tr.configure(
                input.range,
                VirtAddr::new(BITMAP_BASE + t as u64 * STACK_STRIDE),
            );
            tr
        })
        .collect()
}

fn ns(later: Instant, earlier: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos() as u64
}

/// Why the recovered or final stacks differ from the uninterrupted
/// execution after `g` intervals, if they do.
pub(crate) fn check_images(process: &PersistentProcess, inputs: &Inputs, g: u64) -> Vec<String> {
    let reference = inputs.snapshot(g);
    let mut failures = Vec::new();
    for (t, input) in inputs.threads.iter().enumerate() {
        let stack = process.stack(t as u32);
        for (what, image) in [
            ("volatile", stack.volatile()),
            ("persistent", stack.persistent()),
        ] {
            if let Some(at) = image.first_mismatch(&reference[t], input.written) {
                failures.push(format!(
                    "thread {t} {what} stack differs from the uninterrupted run after {g} \
                     intervals at {:#x}",
                    at.raw()
                ));
            }
        }
    }
    failures
}

/// Why a recovery is wrong, if it is: it must land, coherently, on the
/// last committed sequence with every thread resuming at interval `g`
/// and every stack equal to the uninterrupted execution's.
pub(crate) fn check_recovery(
    process: &PersistentProcess,
    inputs: &Inputs,
    recovered: Option<(u64, Vec<u64>)>,
    coherent: Result<u64, String>,
    seq: u64,
    g: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    match recovered {
        None => failures.push("recover found no valid checkpoint".into()),
        Some((s, rips)) => {
            if s != seq {
                failures.push(format!("recovered sequence {s}, last commit was {seq}"));
            }
            if let Some((t, rip)) = rips.iter().enumerate().find(|(_, &r)| r != g) {
                failures.push(format!(
                    "thread {t} resumes at interval {rip}, expected {g}"
                ));
            }
        }
    }
    match coherent {
        Ok(s) if s == seq => {}
        Ok(s) => failures.push(format!(
            "verify_coherent reports sequence {s}, expected {seq}"
        )),
        Err(e) => failures.push(format!("verify_coherent: {e}")),
    }
    failures.extend(check_images(process, inputs, g));
    failures
}

impl<'a> Driver<'a> {
    fn new(spec: &'a Spec, inputs: &'a Inputs) -> Self {
        let ranges: Vec<VirtRange> = inputs.threads.iter().map(|t| t.range).collect();
        let process = if spec.spine {
            PersistentProcess::new_with_spine(&ranges, SpineConfig::default())
        } else {
            PersistentProcess::new(&ranges)
        };
        let workers_cap = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(THREADS);
        let mut d = Self {
            spec,
            inputs,
            process,
            trackers: trackers(inputs),
            dropped_bitmap_ops: 0,
            observed: 0,
            g: 0,
            seq: 0,
            checkpoints: 0,
            workers_cap,
            checks: Checks::default(),
            trail: Trail::default(),
            blocks: Vec::new(),
            current: Block::default(),
            cal: Calibrator::new(),
            copy: CopyPass::new(workers_cap),
            passes_before: Passes::default(),
            sums: LayerSums::default(),
            tracer: Tracer::new(),
        };
        d.passes_before = d.boundary_passes();
        d
    }

    /// Runs the calibration passes between two blocks.
    fn boundary_passes(&mut self) -> Passes {
        Passes {
            lookup: self.cal.passes(BOUNDARY_PASSES),
            copy: self.copy.passes(BOUNDARY_PASSES),
        }
    }

    /// Executes the first `upto` stores of every thread's interval `g`:
    /// the trackers observe them, then the process records them.
    fn execute(&mut self, upto: impl Fn(usize) -> usize, traced: bool, parent: Option<SpanId>) {
        let t0 = Instant::now();
        let (mut observe_ns, mut record_ns, mut stores) = (0, 0, 0);
        for t in 0..THREADS {
            let iv = self.inputs.interval(t, self.g);
            let n = upto(iv.addrs.len());
            let a = Instant::now();
            let tracker = &mut self.trackers[t];
            for (&addr, &size) in iv.addrs[..n].iter().zip(&iv.sizes) {
                tracker.observe_store(VirtAddr::new(addr), u64::from(size));
            }
            let b = Instant::now();
            let mut off = 0;
            for (&addr, &size) in iv.addrs[..n].iter().zip(&iv.sizes) {
                let end = off + size as usize;
                self.process
                    .record_store(t as u32, VirtAddr::new(addr), &iv.values[off..end]);
                off = end;
            }
            let c = Instant::now();
            observe_ns += ns(b, a);
            record_ns += ns(c, b);
            stores += n as u64;
        }
        self.observed += stores;
        if let (true, Some(parent)) = (traced, parent) {
            let t1 = Instant::now();
            let ckpt = self.seq + 1;
            let span = self
                .tracer
                .span("execute", "bench", Some(parent), ckpt, t0, t1);
            self.tracer.aggregate(
                "DirtyTracker::observe_store",
                "tracker",
                span,
                ckpt,
                t0,
                observe_ns,
                stores,
            );
            self.tracer.aggregate(
                "PersistentProcess::record_store",
                "persist",
                span,
                ckpt,
                t0,
                record_ns,
                stores,
            );
            self.sums.observe_ns += observe_ns;
            self.sums.record_ns += record_ns;
            self.sums.stores += stores;
        }
    }

    /// One whole-process checkpoint; returns its stall in ns.
    fn checkpoint(&mut self, traced: bool, parent: Option<SpanId>) -> u64 {
        let t0 = Instant::now();
        let mut flush_ns = 0;
        for tr in &mut self.trackers {
            let a = Instant::now();
            tr.flush();
            flush_ns += ns(Instant::now(), a);
        }
        let mut per_thread = BTreeMap::new();
        let (mut inspect_ns, mut words_read, mut runs_n, mut dirty) = (0, 0, 0, 0);
        let mut failures = Vec::new();
        for (t, tr) in self.trackers.iter_mut().enumerate() {
            let top = self.inputs.threads[t].range.end();
            let geom = tr.geometry();
            let watermark = tr.min_soi_watermark().unwrap_or(top);
            let a = Instant::now();
            let (runs, stats) = tr
                .bitmap_mut()
                .inspect_and_clear(&geom, VirtRange::new(watermark, top));
            inspect_ns += ns(Instant::now(), a);
            tr.reset_watermark();
            let bytes: u64 = runs.iter().map(|r| r.len).sum();
            let expected = self.inputs.interval(t, self.g).dirty_bytes;
            if bytes != expected {
                failures.push(format!(
                    "thread {t} checkpoint {} copies {bytes} dirty bytes, its interval wrote {expected}",
                    self.seq + 1
                ));
            }
            words_read += stats.words_read;
            runs_n += runs.len() as u64;
            dirty += bytes;
            self.process.regs_mut(t as u32).rip = self.g + 1;
            per_thread.insert(t as u32, runs);
        }
        let batches_before = self.process.spine_batches();
        let spine_bytes_before = self.process.spine_bytes();
        let c0 = Instant::now();
        self.process.commit(&per_thread);
        let c1 = Instant::now();
        self.seq += 1;
        self.g += 1;
        self.checkpoints += 1;
        if self.process.committed_sequence() != self.seq {
            failures.push(format!(
                "commit left sequence {}, expected {}",
                self.process.committed_sequence(),
                self.seq
            ));
        }
        let ok = failures.is_empty();
        self.checks.check(ok, || failures.join("; "));
        self.trail.dirty_bytes.push(dirty);
        if traced {
            let commit_ns = ns(c1, c0);
            let s = &mut self.sums;
            s.flush_ns += flush_ns;
            s.inspect_ns += inspect_ns;
            s.inspect_calls += THREADS as u64;
            s.words_read += words_read;
            s.runs += runs_n;
            s.dirty_bytes += dirty;
            s.ckpts += 1;
            s.commit_ns += commit_ns;
            s.spine_bytes += spine_bytes_before;
            let mut predicted =
                predicted_commit_ns(&per_thread, self.workers_cap, self.spec.spine) as f64;
            let batches_after = self.process.spine_batches();
            // A merge commit is one that left fewer batches on the
            // spines than it found.
            if batches_after < batches_before {
                s.merges += 1;
                s.merge_ns += commit_ns;
                let folded = (batches_before + THREADS - batches_after) as u64;
                predicted += (commit_cost::PHASE_BASE_NS
                    + folded * commit_cost::MERGE_RUN_NS
                    + (spine_bytes_before + dirty) * commit_cost::MERGE_BYTE_NS)
                    as f64;
            } else if self.spec.spine {
                s.appends += 1;
                s.append_ns += commit_ns;
            }
            s.model_err_pct
                .push(ratio(predicted - commit_ns as f64, commit_ns as f64) * 100.0);
            if let Some(parent) = parent {
                let span = self
                    .tracer
                    .span("checkpoint", "bench", Some(parent), self.seq, t0, c1);
                self.tracer.aggregate(
                    "DirtyTracker::flush",
                    "tracker",
                    span,
                    self.seq,
                    t0,
                    flush_ns,
                    THREADS as u64,
                );
                self.tracer.aggregate(
                    "DirtyBitmap::inspect_and_clear",
                    "bitmap",
                    span,
                    self.seq,
                    t0,
                    inspect_ns,
                    THREADS as u64,
                );
                self.tracer.span(
                    "PersistentProcess::commit",
                    "commit",
                    Some(span),
                    self.seq,
                    c0,
                    c1,
                );
            }
        }
        ns(c1, t0)
    }

    /// Runs half of the next interval, crashes, recovers and checks the
    /// recovered state; returns the crash-to-verified-recovery time in ns.
    fn crash_and_recover(&mut self, traced: bool, parent: Option<SpanId>) -> u64 {
        self.execute(|n| n / 2, traced, parent);
        let r0 = Instant::now();
        self.process.crash();
        let batches = self.process.spine_batches();
        let a = Instant::now();
        let recovered = self.process.recover();
        let b = Instant::now();
        let coherent = self.process.verify_coherent();
        let r1 = Instant::now();
        let recovered = recovered
            .ok()
            .map(|r| (r.sequence, r.regs.iter().map(|regs| regs.rip).collect()));
        if let Some((s, _)) = &recovered {
            self.trail.recovered.push(*s);
        }
        let failures = check_recovery(
            &self.process,
            self.inputs,
            recovered,
            coherent.map_err(|e| e.to_string()),
            self.seq,
            self.g,
        );
        let ok = failures.is_empty();
        self.checks.check(ok, || failures.join("; "));
        // The trackers' state died with the crash; resume with fresh ones.
        self.dropped_bitmap_ops += self.bitmap_ops();
        self.trackers = trackers(self.inputs);
        if traced {
            self.sums.recover_ns += ns(b, a);
            self.sums.recoveries += 1;
            self.sums.batches_folded += (batches - self.process.spine_batches()) as u64;
            if let Some(parent) = parent {
                let span =
                    self.tracer
                        .span("crash and recover", "bench", Some(parent), self.seq, r0, r1);
                self.tracer.span(
                    "PersistentProcess::crash",
                    "recover",
                    Some(span),
                    self.seq,
                    r0,
                    a,
                );
                self.tracer.span(
                    "PersistentProcess::recover",
                    "recover",
                    Some(span),
                    self.seq,
                    a,
                    b,
                );
                self.tracer.span(
                    "PersistentProcess::verify_coherent",
                    "recover",
                    Some(span),
                    self.seq,
                    b,
                    r1,
                );
            }
        }
        ns(r1, r0)
    }

    fn bitmap_ops(&self) -> u64 {
        self.trackers
            .iter()
            .map(|tr| {
                let l = tr.lookup_stats();
                l.bitmap_loads + l.bitmap_stores
            })
            .sum()
    }

    /// One round: execute interval `g`, checkpoint, and crash and
    /// recover after the checkpoints of [`CRASH_AFTER`].
    fn round(&mut self, mode: Mode) {
        let traced = mode == Mode::Traced;
        let r0 = Instant::now();
        let root = traced.then(|| {
            self.tracer
                .span("round", "bench", None, self.seq + 1, r0, r0)
        });
        let stores: u64 = (0..THREADS)
            .map(|t| self.inputs.interval(t, self.g).addrs.len() as u64)
            .sum();
        let events: u64 = (0..THREADS)
            .map(|t| self.inputs.interval(t, self.g).events)
            .sum();
        let stored_bytes: u64 = (0..THREADS)
            .map(|t| self.inputs.interval(t, self.g).values.len() as u64)
            .sum();
        self.execute(|n| n, traced, root);
        let ckpt_ns = self.checkpoint(traced, root);
        let dirty_bytes = self.trail.dirty_bytes.last().copied().unwrap_or(0);
        let mut recover_ns = None;
        if CRASH_AFTER.contains(&(self.checkpoints % BLOCK)) {
            recover_ns = Some(self.crash_and_recover(traced, root));
        }
        let r1 = Instant::now();
        if let Some(root) = root {
            self.tracer.set_end(root, r1);
        }
        let c = &mut self.current;
        c.ckpt_us.push(ckpt_ns as f64 / 1e3);
        c.recover_us.extend(recover_ns.map(|r| r as f64 / 1e3));
        c.wall_ns += ns(r1, r0);
        c.stores += stores;
        c.events += events;
        c.stored_bytes += stored_bytes;
        c.dirty_bytes += dirty_bytes;
        if self.checkpoints.is_multiple_of(BLOCK) {
            let mut block = std::mem::take(&mut self.current);
            let after = self.boundary_passes();
            let around = |before: &[f64], after: &[f64]| {
                median(&before.iter().chain(after).copied().collect::<Vec<_>>())
            };
            block.pass_ns = around(&self.passes_before.lookup, &after.lookup);
            block.copy_pass_ns = around(&self.passes_before.copy, &after.copy);
            self.passes_before = after;
            if mode != Mode::Warmup {
                self.blocks.push((mode, block));
            }
        }
    }

    /// The blocks measured in `mode`.
    fn measured(&self, mode: Mode) -> Vec<&Block> {
        self.blocks
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, b)| b)
            .collect()
    }

    /// Median host time of the lookup passes just run.
    fn pass_ns(&self) -> f64 {
        median(&self.passes_before.lookup)
    }

    /// Checks the final state against the uninterrupted execution,
    /// after folding any spine into the persistent images.
    fn finish(&mut self) {
        self.process.merge_all_spines();
        let failures = check_images(&self.process, self.inputs, self.g);
        self.checks.check_all(THREADS as u64, failures);
    }
}

/// How a round is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Warmup,
    Untraced,
    Traced,
}

/// Runs `spec` for `budget` and reports its metrics.
pub(crate) fn run(spec: &Spec, seed: u64, budget: &Budget, traced: bool) -> (Report, Tracer) {
    let mut report = Report::default();
    let t0 = Instant::now();
    let (inputs, gen) = Inputs::generate(spec, seed);
    let first_setup_ns = t0.elapsed().as_nanos() as f64;

    let mut d = Driver::new(spec, &inputs);
    // Calibrated seconds of every set-up, each by the passes next to it.
    let mut setup_s = vec![calibrated(first_setup_ns, d.pass_ns(), PASS_NS) / 1e9];
    let start = Instant::now();
    loop {
        if d.checkpoints.is_multiple_of(BLOCK) {
            // Set up again every few blocks: `setup_s` comes from
            // set-ups spread over the run, and every set-up must
            // reproduce the inputs. The schedule counts blocks, not
            // time, so memory use repeats for one seed.
            let block = d.checkpoints / BLOCK;
            if setup_s.len() < SETUPS && block == RESETUP_BLOCKS * setup_s.len() as u64 {
                let t0 = Instant::now();
                let (again, _) = Inputs::generate(spec, seed);
                let ns = t0.elapsed().as_nanos() as f64;
                setup_s.push(calibrated(ns, d.pass_ns(), PASS_NS) / 1e9);
                d.checks.check(again == inputs, || {
                    "set-up produced different inputs for one seed".into()
                });
            }
            let enough = if traced {
                d.measured(Mode::Traced).len() >= MIN_BLOCKS / 2
                    && d.measured(Mode::Untraced).len() >= MIN_BLOCKS / 2
            } else {
                d.measured(Mode::Untraced).len() >= MIN_BLOCKS
            };
            if enough && setup_s.len() == SETUPS && budget.spent(start) {
                break;
            }
        }
        let mode = match (d.checkpoints / BLOCK, traced) {
            (0, _) => Mode::Warmup,
            (b, true) if b % 2 == 0 => Mode::Traced,
            _ => Mode::Untraced,
        };
        d.round(mode);
    }
    d.finish();

    report.note(format!(
        "{}: {} threads, {} checkpoints in blocks of {BLOCK}: {} untraced and {} traced \
         blocks measured, {} recoveries",
        spec.name,
        THREADS,
        d.checkpoints,
        d.measured(Mode::Untraced).len(),
        d.measured(Mode::Traced).len(),
        d.trail.recovered.len()
    ));
    if !traced {
        let measured = d.measured(Mode::Untraced);
        let ckpt_us: Vec<f64> = measured
            .iter()
            .flat_map(|b| b.calibrated_ckpt_us())
            .collect();
        let recover_us: Vec<f64> = measured
            .iter()
            .flat_map(|b| b.calibrated_recover_us())
            .collect();
        report.note(format!(
            "calibration: median lookup pass {} ns, copy pass {} ns over the measured blocks; \
             checkpoint samples = {}, p99 = {} us ({} beyond it); recovery samples = {}; \
             set-ups = {}",
            median_of(&measured, |b| b.pass_ns),
            median_of(&measured, |b| b.copy_pass_ns),
            ckpt_us.len(),
            percentile(&ckpt_us, 0.99),
            beyond(ckpt_us.len(), 0.99),
            recover_us.len(),
            setup_s.len()
        ));
        report.metric("setup_s", median(&setup_s), "s");
        report.metric(
            "sim_events_per_s",
            median_of(&measured, |b| b.per_s(b.events)),
            "1/s",
        );
        // Bytes, not time: what the checkpoints copied again as a share
        // of what the program stored, over every measured block.
        let sum = |f: fn(&Block) -> u64| measured.iter().map(|b| f(b)).sum::<u64>() as f64;
        report.metric(
            "prosper_overhead_pct",
            ratio(sum(|b| b.dirty_bytes), sum(|b| b.stored_bytes)) * 100.0,
            "%",
        );
        report.metric(
            "stores_per_s",
            median_of(&measured, |b| b.per_s(b.stores)),
            "1/s",
        );
        report.metric("ckpt_p50_us", percentile(&ckpt_us, 0.5), "us");
        report.metric("recover_p50_us", median(&recover_us), "us");
        report.metric("peak_rss_mib", crate::host::peak_rss_mib(), "MiB");
        report.checks = d.checks;
        return (report, d.tracer);
    }

    let s = &d.sums;
    let mut layered = Layered::default();
    layered.set(
        "trace.ns_per_event",
        ratio(gen.trace_ns as f64, gen.events as f64),
    );
    layered.set("trace.events", gen.events as f64);
    let ckpts = s.ckpts as f64;
    layered.set(
        "tracker.ns_per_store",
        ratio(s.observe_ns as f64, s.stores as f64),
    );
    layered.set(
        "tracker.bitmap_ops_per_store",
        ratio(
            (d.dropped_bitmap_ops + d.bitmap_ops()) as f64,
            d.observed as f64,
        ),
    );
    layered.set(
        "tracker.flush_ns",
        ratio(s.flush_ns as f64, ckpts * THREADS as f64),
    );
    layered.set(
        "bitmap.inspect_ns",
        ratio(s.inspect_ns as f64, s.inspect_calls as f64),
    );
    layered.set("bitmap.words_read", ratio(s.words_read as f64, ckpts));
    layered.set("bitmap.runs_per_ckpt", ratio(s.runs as f64, ckpts));
    layered.set(
        "bitmap.dirty_bytes_per_ckpt",
        ratio(s.dirty_bytes as f64, ckpts),
    );
    layered.set("commit.ns", ratio(s.commit_ns as f64, ckpts));
    layered.set(
        "commit.ns_per_byte",
        ratio(s.commit_ns as f64, s.dirty_bytes as f64),
    );
    layered.set("commit.model_err_pct", median(&s.model_err_pct));
    layered.set(
        "spine.merge_commit_ns",
        ratio(s.merge_ns as f64, s.merges as f64),
    );
    layered.set(
        "spine.append_commit_ns",
        ratio(s.append_ns as f64, s.appends as f64),
    );
    layered.set("spine.merge_commits", ratio(s.merges as f64, ckpts));
    layered.set(
        "spine.bytes_per_dirty_byte",
        ratio(s.spine_bytes as f64, s.dirty_bytes as f64),
    );
    layered.set(
        "persist.record_ns_per_store",
        ratio(s.record_ns as f64, s.stores as f64),
    );
    layered.set(
        "recover.ns",
        ratio(s.recover_ns as f64, s.recoveries as f64),
    );
    layered.set(
        "recover.batches_folded",
        ratio(s.batches_folded as f64, s.recoveries as f64),
    );
    let (u, t) = (d.measured(Mode::Untraced), d.measured(Mode::Traced));
    layered.tracing_overhead(
        (
            median_of(&u, |b| b.per_s(b.events)),
            median_of(&t, |b| b.per_s(b.events)),
        ),
        (
            median_of(&u, |b| b.per_s(b.stores)),
            median_of(&t, |b| b.per_s(b.stores)),
        ),
    );
    layered.finish(&mut report, &d.tracer);
    report.checks = d.checks;
    (report, d.tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `rounds` rounds of `spec` over `inputs` and returns what the
    /// seed must reproduce, with the output checks' counts.
    fn trail(spec: &Spec, inputs: &Inputs, rounds: u64) -> (Trail, Checks) {
        let mut d = Driver::new(spec, inputs);
        for _ in 0..rounds {
            d.round(Mode::Untraced);
        }
        d.finish();
        (d.trail, d.checks)
    }

    /// A short-period variant of a workload, for fast tests.
    fn small(name: &str) -> Spec {
        Spec {
            period: 2,
            ..Spec::named(name).expect("known workload")
        }
    }

    #[test]
    fn same_seed_reproduces_dirty_bytes_and_recoveries() {
        for name in ["persist_apps", "persist_stream_spine"] {
            let spec = small(name);
            let (inputs, _) = Inputs::generate(&spec, 7);
            let (again, _) = Inputs::generate(&spec, 7);
            assert_eq!(inputs, again, "{name}: inputs");
            let (a, checks) = trail(&spec, &inputs, 23);
            let (b, _) = trail(&spec, &again, 23);
            assert_eq!(
                checks.failed, 0,
                "{name}: checks pass on the program as it is"
            );
            assert_eq!(checks.attempted, 23 + 3 + THREADS as u64);
            assert_eq!(a, b, "{name}: dirty bytes and recovered sequences");
            assert_eq!(a.recovered, [7, 16, 23]);
            assert!(a.dirty_bytes.iter().all(|&d| d > 0));
        }
    }

    #[test]
    fn different_seed_changes_the_inputs() {
        for name in ["persist_apps", "persist_stream_spine"] {
            let spec = small(name);
            let (a, _) = Inputs::generate(&spec, 1);
            let (b, _) = Inputs::generate(&spec, 2);
            assert_ne!(a.threads, b.threads, "{name}");
        }
    }

    #[test]
    fn stream_checkpoints_copy_the_whole_array() {
        let spec = small("persist_stream_spine");
        let (inputs, _) = Inputs::generate(&spec, 3);
        for t in &inputs.threads {
            for iv in &t.intervals {
                assert!(iv.dirty_bytes >= STREAM_ARRAY_BYTES, "{}", iv.dirty_bytes);
            }
        }
    }

    #[test]
    fn spine_recoveries_fold_one_batch_per_thread() {
        let spec = small("persist_stream_spine");
        let (inputs, _) = Inputs::generate(&spec, 4);
        let mut d = Driver::new(&spec, &inputs);
        for _ in 0..16 {
            d.round(Mode::Traced);
        }
        assert_eq!(d.sums.recoveries, 2);
        assert_eq!(d.sums.batches_folded, 2 * THREADS as u64);
        assert_eq!(d.sums.merges + d.sums.appends, 16);
        assert_eq!(d.checks.failed, 0);
    }

    #[test]
    fn checkpoint_check_fails_on_a_wrong_dirty_set() {
        let spec = small("persist_apps");
        let (mut inputs, _) = Inputs::generate(&spec, 5);
        inputs.threads[1].intervals[0].dirty_bytes += 8;
        let (_, checks) = trail(&spec, &inputs, 2);
        assert_eq!(checks.failed, 1);
    }

    #[test]
    fn recovery_and_final_checks_fail_on_corrupted_results() {
        for name in ["persist_apps", "persist_stream_spine"] {
            let spec = small(name);
            let (inputs, _) = Inputs::generate(&spec, 9);
            let mut d = Driver::new(&spec, &inputs);
            for _ in 0..2 {
                d.round(Mode::Untraced);
            }
            d.process.crash();
            let rec = d.process.recover().expect("two checkpoints committed");
            let rips: Vec<u64> = rec.regs.iter().map(|r| r.rip).collect();
            let (seq, g) = (d.seq, d.g);
            let good = || Some((rec.sequence, rips.clone()));
            let check = |p: &PersistentProcess, r, c| check_recovery(p, &inputs, r, c, seq, g);
            assert!(check(&d.process, good(), Ok(seq)).is_empty(), "{name}");
            assert_eq!(check(&d.process, None, Ok(seq)).len(), 1);
            assert_eq!(
                check(&d.process, Some((seq - 1, rips.clone())), Ok(seq)).len(),
                1
            );
            let mut wrong_rip = rips.clone();
            wrong_rip[2] += 1;
            assert_eq!(check(&d.process, Some((seq, wrong_rip)), Ok(seq)).len(), 1);
            assert_eq!(check(&d.process, good(), Err("skew".into())).len(), 1);
            assert_eq!(check(&d.process, good(), Ok(seq + 1)).len(), 1);

            // Corrupt one recovered byte of thread 0's stack.
            let addr = VirtAddr::new(inputs.threads[0].intervals[0].addrs[0]);
            let old = d.process.stack(0).volatile().read(addr, 1)[0];
            d.process.record_store(0, addr, &[old ^ 0xff]);
            let failures = check(&d.process, good(), Ok(seq));
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].contains("volatile"));
            let before = d.checks.failed;
            d.finish();
            assert_eq!(d.checks.failed, before + 1, "{name}: final state check");
        }
    }

    #[test]
    fn model_prediction_counts_runs_bytes_and_workers() {
        let run = |len| CopyRun {
            start: VirtAddr::new(0x1000),
            len,
        };
        let mut runs = BTreeMap::new();
        runs.insert(0u32, vec![run(64)]);
        runs.insert(1u32, vec![run(64), run(128)]);
        let serial = modeled_commit_ns(&runs, 1, false);
        let stage = commit_cost::PHASE_BASE_NS
            + 3 * commit_cost::STAGE_RUN_NS
            + 256 * commit_cost::STAGE_BYTE_NS;
        let apply = commit_cost::PHASE_BASE_NS
            + 3 * commit_cost::APPLY_RUN_NS
            + 256 * commit_cost::APPLY_BYTE_NS;
        let fixed = commit_cost::SEAL_NS
            + 2 * (commit_cost::BOOKKEEP_SLOT_NS + commit_cost::REGISTER_SLOT_NS);
        assert_eq!(serial, stage + apply + fixed);
        assert!(
            modeled_commit_ns(&runs, 2, false) > serial,
            "spawns outweigh a tiny commit"
        );
        assert_eq!(predicted_commit_ns(&runs, 2, false), serial);
        assert!(
            modeled_commit_ns(&runs, 1, true) < serial,
            "spine appends skip the apply copy"
        );
    }
}
