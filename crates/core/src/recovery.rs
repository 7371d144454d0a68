//! Whole-process recovery: registers + per-thread persistent stacks
//! under one commit boundary.
//!
//! The paper's end-to-end solution checkpoints *all* process state
//! (Section III-D). [`PersistentProcess`] is that facade: one `commit`
//! captures every thread's registers and stack runs atomically with
//! respect to recovery — after a crash, the recovered registers and
//! memory always belong to the *same* checkpoint.
//!
//! # The two-phase whole-process commit
//!
//! The protocol extends the paper's two-step stack commit (Section
//! III-B, Figure 6) to the whole process:
//!
//! 1. **Stage**: every thread's dirty runs are copied into its NVM
//!    staging buffer, and the register file is staged into a process
//!    commit record — nothing is applied yet.
//! 2. **Seal**: the record is sealed with one durable write. This is
//!    the commit point: a crash before it discards all staging
//!    (recovery sees sequence N), a crash after it redoes phase two
//!    from the staged state (recovery sees N+1). Either way all
//!    threads and the registers land on the *same* sequence.
//! 3. **Apply**: each staging buffer is applied to its persistent
//!    stack, then every register slot is written; finally the record
//!    is retired.
//!
//! # One engine, one event stream
//!
//! [`PersistentProcess::commit_with`] is the only implementation of
//! the protocol: validate every thread's runs, stage (parallel), seal
//! (coordinator), phase two (parallel: eager apply or spine append),
//! register tail, retire, then the policy-gated spine merge.
//! Recovery's redo of a sealed record runs the same phase-two code.
//! Stage and phase two touch strictly per-thread state, so they fan
//! out over work-stealing scoped workers; the seal stays the single
//! serialization point.
//!
//! Every protocol boundary emits one [`CommitEvent`] to a single
//! [`CommitObserver`]. Production passes `()`, which compiles to
//! nothing: no lock, no allocation and no dynamic call per run. The
//! instrumentation is three views of the same stream: [`CommitProbe`]
//! (protocol order, for the `prosper-analysis` conformance checker),
//! [`StallLedger`] (the cause-tagged stall ledger) and [`CrashWindows`]
//! (a [`FaultInjector`] firing at the [`CrashSite`] of a boundary, so
//! the crash matrix fails the power inside the code production runs,
//! at any worker count). When an observer fails the power, the worker
//! that saw it stops at once and every other worker stops at its next
//! boundary.
//!
//! # Worker count
//!
//! [`PersistentProcess::commit`] and recovery's redo run serial on
//! every host; [`PersistentProcess::commit_with`] takes an explicit
//! worker count for callers that want a fan-out. `perf_baseline`'s
//! commit sweep times eager `commit_with` at 256 KiB–16 MiB × 1/2/4
//! workers and fits a roofline (per-worker cost, per-worker copy rate,
//! host bandwidth) to it. On a 2-core host one extra worker cost about
//! 30 µs per pass, a 1 MiB commit took about 150 µs serial and 300 µs
//! at 2 workers, and the fit's pick was serial at every size, so a
//! selector would only compute `1`. What serial gives up is the
//! largest commits: a fan-out measured faster than serial at 4 or
//! 16 MiB in some runs. Spine phase two is O(1) per stack and never
//! fans out at any worker count.
//!
//! # Spine mode (staged-delta spine)
//!
//! With a [`SpineConfig`] ([`PersistentProcess::new_with_spine`]),
//! phase two retires each sealed staging buffer as an immutable delta
//! batch appended to its stack's spine
//! ([`PersistentStack::seal_to_spine`], an O(1) pointer swing) instead
//! of copying it — the apply copy leaves the critical path, while the
//! seal and the register tail are unchanged. A deferred, policy-gated
//! merge ([`PersistentStack::should_merge`]) then folds spines
//! newest-wins into the persistent images, charged to
//! [`StallCause::Merge`]; recovery folds any surviving spine the same
//! way, so the recovered image is byte-identical to eager apply (the
//! differential proptests pin this). Merge only ever folds sealed
//! batches, and a crash between merge steps is recovered by simply
//! re-merging: each completed prefix of the newest-first fold writes a
//! value-identical subset of the full fold.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use prosper_telemetry as telemetry;
use prosper_telemetry::{StallAccountant, StallCause};

use prosper_gemos::crash::{CrashInjected, CrashSite, FaultInjector};
use prosper_gemos::process::RegisterFile;
use prosper_gemos::restore::{NoValidCheckpoint, ProcessCheckpointStore};
use prosper_memsim::addr::VirtRange;

use crate::bitmap::CopyRun;
use crate::persist::{MergeStats, PersistentStack, SpineConfig};

/// The NVM process commit record: staged registers plus the seal
/// marker whose single durable write is the commit point.
#[derive(Clone, Debug)]
struct ProcessCommitRecord {
    /// Sequence this commit will carry once sealed.
    sequence: u64,
    /// Registers of every thread as staged in phase one.
    staged_regs: Vec<RegisterFile>,
    /// Written last; before it the whole commit is discardable.
    sealed: bool,
}

/// One protocol boundary of the commit engine (or of recovery). Worker
/// events arrive in their actual cross-thread order, coordinator events
/// between the parallel passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitEvent {
    /// The coordinator opened a commit; nothing is staged yet.
    Begin {
        /// Sequence the commit will carry.
        sequence: u64,
        /// Stacks taking part (thread ids `0..threads`).
        threads: u32,
        /// Worker count of the parallel phases.
        workers: usize,
    },
    /// Thread `tid` staged one more run.
    StageRun {
        /// Thread staging.
        tid: u32,
        /// Runs staged so far on this thread.
        runs_staged: u32,
        /// Length of the run just staged.
        bytes: u64,
    },
    /// Thread `tid` finished staging `sequence`.
    StageThread {
        /// Thread that finished staging.
        tid: u32,
        /// Sequence staged.
        sequence: u64,
    },
    /// Every stack staged and the unsealed record is written.
    Staged,
    /// The record sealed — the commit point.
    Seal {
        /// Sequence the seal committed.
        sequence: u64,
    },
    /// Eager phase two: thread `tid` applied one more staged run.
    ApplyRun {
        /// Thread applying.
        tid: u32,
        /// Runs applied so far on this thread.
        runs_applied: u32,
        /// Length of the run just applied.
        bytes: u64,
    },
    /// Eager phase two: thread `tid`'s staging buffer is fully applied.
    ApplyThread {
        /// Thread whose apply finished.
        tid: u32,
        /// Sequence applied.
        sequence: u64,
    },
    /// Spine phase two: thread `tid`'s staging buffer became a batch.
    BatchAppend {
        /// Thread whose batch was appended.
        tid: u32,
        /// Sequence of the batch.
        sequence: u64,
    },
    /// Phase two drained on every stack; the register tail is next.
    PhaseTwoDone,
    /// Thread `tid`'s register slot was written.
    RegisterSlot {
        /// Thread whose registers were written.
        tid: u32,
    },
    /// The record retired; the commit is complete.
    Retire {
        /// Sequence that completed.
        sequence: u64,
    },
    /// One fold step of thread `tid`'s spine merge.
    MergeStep {
        /// Thread merging.
        tid: u32,
        /// Newest-first batches folded so far.
        batches_folded: u32,
        /// Deduplicated bytes the step wrote.
        bytes: u64,
    },
    /// Thread `tid`'s spine was folded and retired.
    MergeRetire {
        /// Thread whose spine retired.
        tid: u32,
        /// Highest committed sequence the fold covered.
        upto: u64,
    },
    /// Recovery starts.
    Recover {
        /// Sequence being redone (0 when nothing was sealed).
        sequence: u64,
        /// Stacks taking part (thread ids `0..threads`).
        threads: u32,
        /// Runs replayed.
        runs: u64,
        /// Bytes replayed.
        bytes: u64,
    },
    /// The commit (completed or torn) or the recovery ended; never a
    /// crash window.
    End,
}

impl CommitEvent {
    /// The crash window this boundary is, if any.
    #[must_use]
    pub fn site(&self) -> Option<CrashSite> {
        use CommitEvent as E;
        Some(match *self {
            E::Begin { .. } => CrashSite::PreStage,
            E::StageRun {
                tid, runs_staged, ..
            } => CrashSite::MidStage { tid, runs_staged },
            E::Staged => CrashSite::PreSeal,
            E::Seal { .. } => CrashSite::PostSeal,
            E::ApplyRun {
                tid, runs_applied, ..
            } => CrashSite::MidApply { tid, runs_applied },
            E::ApplyThread { tid, .. } => CrashSite::PostApplyThread { tid },
            E::BatchAppend { tid, .. } => CrashSite::BatchSeal { tid },
            E::PhaseTwoDone => CrashSite::PostApplyPreRegisters,
            E::RegisterSlot { tid } => CrashSite::MidRegisterApply { tid },
            E::Retire { .. } => CrashSite::PostCommit,
            E::MergeStep {
                tid,
                batches_folded,
                ..
            } => CrashSite::MidMerge {
                tid,
                batches_folded,
            },
            E::MergeRetire { tid, .. } => CrashSite::MergeRetire { tid },
            E::StageThread { .. } | E::Recover { .. } | E::End => return None,
        })
    }
}

/// Observes every boundary of the commit engine. `Sync` because the
/// parallel phases report from the scoped workers.
pub trait CommitObserver: Sync {
    /// Observes one boundary. `Err` is a power failure at that
    /// boundary: the engine stops at once and leaves persistent state
    /// exactly as it is.
    ///
    /// # Errors
    ///
    /// Returns [`CrashInjected`] to fail the power here.
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected>;
}

/// The production observer: sees nothing, never crashes.
impl CommitObserver for () {
    #[inline(always)]
    fn on(&self, _: CommitEvent) -> Result<(), CrashInjected> {
        Ok(())
    }
}

impl<T: CommitObserver + ?Sized> CommitObserver for &T {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        (**self).on(event)
    }
}

impl<T: CommitObserver> CommitObserver for Option<T> {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        self.as_ref().map_or(Ok(()), |o| o.on(event))
    }
}

/// Both observers see every event; either may fail the power.
impl<A: CommitObserver, B: CommitObserver> CommitObserver for (A, B) {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        let a = self.0.on(event);
        let b = self.1.on(event);
        a.and(b)
    }
}

/// One protocol-order event recorded by a [`CommitProbe`];
/// `prosper-analysis` checks the stream against the invariants its
/// interleaving explorer enforces on the protocol model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitProbeEvent {
    /// Worker finished staging thread `tid`'s runs for `sequence`.
    StageThread {
        /// Thread whose runs were staged.
        tid: u32,
        /// Sequence the commit will carry.
        sequence: u64,
    },
    /// The coordinator sealed the process commit record.
    Seal {
        /// Sequence the seal committed.
        sequence: u64,
    },
    /// Worker finished phase two (apply or batch append) of thread
    /// `tid`'s staging buffer.
    ApplyThread {
        /// Thread whose staging buffer was applied.
        tid: u32,
        /// Sequence being applied.
        sequence: u64,
    },
    /// The commit record was retired; the commit is complete.
    Retire {
        /// Sequence that completed.
        sequence: u64,
    },
    /// Deferred spine merge: thread `tid`'s spine was folded into its
    /// persistent image, covering every batch up to and including
    /// `upto` (never an unsealed one).
    MergeThread {
        /// Thread whose spine was folded.
        tid: u32,
        /// Highest committed sequence the fold covered.
        upto: u64,
    },
}

/// The protocol-order view of the event stream: logs the
/// [`CommitProbeEvent`]s in the *actual* cross-thread order of
/// protocol boundaries, not a reconstruction.
#[derive(Debug, Default)]
pub struct CommitProbe {
    log: Mutex<Vec<CommitProbeEvent>>,
}

impl CommitProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in observation order.
    pub fn events(&self) -> Vec<CommitProbeEvent> {
        self.log.lock().map(|log| log.clone()).unwrap_or_default()
    }
}

impl CommitObserver for CommitProbe {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        let ev = match event {
            CommitEvent::StageThread { tid, sequence } => {
                CommitProbeEvent::StageThread { tid, sequence }
            }
            CommitEvent::Seal { sequence } => CommitProbeEvent::Seal { sequence },
            CommitEvent::ApplyThread { tid, sequence }
            | CommitEvent::BatchAppend { tid, sequence } => {
                CommitProbeEvent::ApplyThread { tid, sequence }
            }
            CommitEvent::Retire { sequence } => CommitProbeEvent::Retire { sequence },
            CommitEvent::MergeRetire { tid, upto } => CommitProbeEvent::MergeThread { tid, upto },
            _ => return Ok(()),
        };
        if let Ok(mut log) = self.log.lock() {
            log.push(ev);
        }
        Ok(())
    }
}

/// Deterministic virtual-time cost model of the commit engine: what a
/// [`StallLedger`] advances a virtual-clock [`StallAccountant`] by, so
/// attributed timelines are byte-identical across runs yet sensitive
/// to the worker count (a wall-clock accountant ignores `advance`).
/// Units are virtual ns, loosely calibrated to the simulator's cycle
/// costs: they need to be *stable*, not accurate, since conservation
/// holds under any clock.
pub mod commit_cost {
    /// Fixed per-phase dispatch overhead.
    pub const PHASE_BASE_NS: u64 = 100;
    /// Staging: per staged run.
    pub const STAGE_RUN_NS: u64 = 60;
    /// Staging: per staged byte.
    pub const STAGE_BYTE_NS: u64 = 1;
    /// The single durable seal write.
    pub const SEAL_NS: u64 = 250;
    /// Coordinator bookkeeping per thread: staging its register file
    /// into the commit record. Seal-phase work, not staging work.
    pub const BOOKKEEP_SLOT_NS: u64 = 20;
    /// Spawning one scoped worker. The engine charges it nowhere:
    /// [`super::PersistentProcess::commit`] runs serial. It remains
    /// for cost models of a fanned-out commit built on these constants.
    pub const WORKER_SPAWN_NS: u64 = 5_000;
    /// Apply: per staged run.
    pub const APPLY_RUN_NS: u64 = 40;
    /// Apply: per staged byte.
    pub const APPLY_BYTE_NS: u64 = 1;
    /// Apply: per register slot (the serial tail).
    pub const REGISTER_SLOT_NS: u64 = 30;
    /// Spine mode: retiring one sealed staging buffer as an immutable
    /// delta batch — a pointer swing plus one durable batch-header
    /// write, replacing the per-byte apply copy on the critical path.
    pub const BATCH_APPEND_NS: u64 = 80;
    /// Spine merge: per merge step. A merge folds its spine in one
    /// step per batch, so this is charged once per folded batch.
    pub const MERGE_RUN_NS: u64 = 40;
    /// Spine merge: per deduplicated byte written by a fold step.
    pub const MERGE_BYTE_NS: u64 = 1;
    /// Recovery redo: per staged run replayed.
    pub const RECOVERY_RUN_NS: u64 = 50;
    /// Recovery redo: per staged byte replayed.
    pub const RECOVERY_BYTE_NS: u64 = 1;
    /// Recovery fixed overhead (record scan + register restore).
    pub const RECOVERY_BASE_NS: u64 = 400;
}

/// The stall-ledger view of the event stream: charges every thread
/// (all are stalled during a whole-process commit) one cause-tagged
/// [`StallSegment`] per phase and one [`StallWindow`] per commit. The
/// segments tile the window by construction, also when a crash tears
/// the commit: the open phase closes at the crash instant.
///
/// One charging rule: each parallel phase (stage, phase two) is
/// charged once, when it closes, as the work-stealing makespan of the
/// work its workers reported (`stolen_phase_cost`), torn by a crash
/// or not; the merge is the same rule at one worker. The seal charges
/// [`commit_cost::SEAL_NS`] plus bookkeeping, the register tail
/// [`commit_cost::REGISTER_SLOT_NS`] per slot. Recovery is one
/// `Recovery` segment and window, modelled from the runs and bytes it
/// replays.
///
/// [`StallSegment`]: prosper_telemetry::StallSegment
/// [`StallWindow`]: prosper_telemetry::StallWindow
#[derive(Debug)]
pub struct StallLedger<'a> {
    acct: &'a StallAccountant,
    state: Mutex<LedgerState>,
}

/// The commit (or recovery) a [`StallLedger`] is charging.
#[derive(Debug, Default)]
struct LedgerState {
    sequence: u64,
    tids: Vec<u32>,
    /// Workers of the open phase (1 for the merge).
    workers: usize,
    window_start: u64,
    phase_start: u64,
    /// Cause of the open segment.
    cause: Option<StallCause>,
    /// Uncharged work of the open parallel phase, per thread.
    work: Vec<u64>,
    /// Whether the open parallel phase dispatched and is uncharged.
    entered: bool,
    /// Modelled recovery cost, charged when the recovery ends.
    recovery_ns: u64,
}

impl<'a> StallLedger<'a> {
    /// A ledger charging `acct`.
    pub fn new(acct: &'a StallAccountant) -> Self {
        Self {
            acct,
            state: Mutex::new(LedgerState::default()),
        }
    }
}

impl LedgerState {
    fn add_work(&mut self, tid: u32, ns: u64) {
        if let Some(w) = self.work.get_mut(tid as usize) {
            *w += ns;
        }
        self.entered = true;
    }

    /// Charges the open parallel phase, once.
    fn charge(&mut self, acct: &StallAccountant) {
        if std::mem::take(&mut self.entered) {
            let work = &self.work;
            acct.advance(PersistentProcess::stolen_phase_cost(
                &self.tids,
                self.workers,
                |tid| work.get(tid as usize).copied().unwrap_or(0),
            ));
            self.work.fill(0);
        }
    }

    /// Closes the open segment at the current instant.
    fn close(&mut self, acct: &StallAccountant) {
        self.charge(acct);
        let now = acct.now_ns();
        if let Some(cause) = self.cause {
            for &tid in &self.tids {
                acct.record_segment(tid, cause, self.sequence, self.phase_start, now);
            }
        }
        self.phase_start = now;
    }

    fn open(&mut self, acct: &StallAccountant, cause: StallCause) {
        self.close(acct);
        self.cause = Some(cause);
    }
}

impl CommitObserver for StallLedger<'_> {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        use commit_cost as c;
        let acct = self.acct;
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            CommitEvent::Begin {
                sequence,
                threads,
                workers,
            } => {
                let now = acct.now_ns();
                *s = LedgerState {
                    sequence,
                    tids: (0..threads).collect(),
                    workers,
                    window_start: now,
                    phase_start: now,
                    cause: Some(StallCause::Stage),
                    work: vec![0; threads as usize],
                    ..LedgerState::default()
                };
            }
            CommitEvent::StageRun { tid, bytes, .. } => {
                s.add_work(tid, c::STAGE_RUN_NS + bytes * c::STAGE_BYTE_NS);
            }
            CommitEvent::ApplyRun { tid, bytes, .. } => {
                s.add_work(tid, c::APPLY_RUN_NS + bytes * c::APPLY_BYTE_NS);
            }
            CommitEvent::BatchAppend { tid, .. } => s.add_work(tid, c::BATCH_APPEND_NS),
            CommitEvent::StageThread { .. } | CommitEvent::ApplyThread { .. } => {
                s.entered = true;
            }
            CommitEvent::Staged => s.open(acct, StallCause::Seal),
            CommitEvent::Seal { .. } => {
                acct.advance(c::SEAL_NS + s.tids.len() as u64 * c::BOOKKEEP_SLOT_NS);
                s.open(acct, StallCause::Apply);
            }
            CommitEvent::PhaseTwoDone => s.charge(acct),
            CommitEvent::RegisterSlot { .. } => acct.advance(c::REGISTER_SLOT_NS),
            CommitEvent::MergeStep { tid, bytes, .. } => {
                if s.cause != Some(StallCause::Merge) {
                    s.open(acct, StallCause::Merge);
                    s.workers = 1;
                }
                s.add_work(tid, c::MERGE_RUN_NS + bytes * c::MERGE_BYTE_NS);
            }
            CommitEvent::Retire { .. } | CommitEvent::MergeRetire { .. } => {}
            CommitEvent::Recover {
                sequence,
                threads,
                runs,
                bytes,
            } => {
                let now = acct.now_ns();
                *s = LedgerState {
                    sequence,
                    tids: (0..threads).collect(),
                    window_start: now,
                    phase_start: now,
                    cause: Some(StallCause::Recovery),
                    recovery_ns: c::RECOVERY_BASE_NS
                        + runs * c::RECOVERY_RUN_NS
                        + bytes * c::RECOVERY_BYTE_NS,
                    ..LedgerState::default()
                };
            }
            CommitEvent::End => {
                acct.advance(s.recovery_ns);
                s.close(acct);
                for &tid in &s.tids {
                    acct.record_window(tid, s.window_start, s.phase_start);
                }
                *s = LedgerState::default();
            }
        }
        Ok(())
    }
}

/// The crash-window view of the event stream: the [`FaultInjector`]
/// may fire at every event with a [`CrashSite`]. Once it fired, every
/// later boundary on any worker reports the same crash, as one power
/// failure stops all workers. `inner` (typically a [`StallLedger`])
/// sees events up to the one that fired, plus the closing `End`.
#[derive(Debug)]
pub struct CrashWindows<'a, O = ()> {
    inj: Mutex<&'a mut FaultInjector>,
    inner: O,
}

impl<'a> CrashWindows<'a> {
    /// Crash windows of `inj`, with no other observer.
    pub fn new(inj: &'a mut FaultInjector) -> Self {
        Self::with(inj, ())
    }
}

impl<'a, O: CommitObserver> CrashWindows<'a, O> {
    /// Crash windows of `inj` in front of `inner`.
    pub fn with(inj: &'a mut FaultInjector, inner: O) -> Self {
        Self {
            inj: Mutex::new(inj),
            inner,
        }
    }
}

impl<O: CommitObserver> CommitObserver for CrashWindows<'_, O> {
    fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
        let mut inj = self.inj.lock().unwrap_or_else(PoisonError::into_inner);
        if event == CommitEvent::End {
            return self.inner.on(event);
        }
        if let Some((_, site)) = inj.fired() {
            return Err(CrashInjected { site });
        }
        self.inner.on(event)?;
        match event.site() {
            Some(site) if inj.observe(site) => Err(CrashInjected { site }),
            _ => Ok(()),
        }
    }
}

/// One claimable unit of the work-stealing stack fan-out: a worker
/// that takes the `Some` owns that stack for the pass.
type StackTask<'a> = Mutex<Option<(u32, &'a mut PersistentStack)>>;

/// A process whose registers and stacks are persisted together.
#[derive(Debug)]
pub struct PersistentProcess {
    registers: ProcessCheckpointStore,
    stacks: BTreeMap<u32, PersistentStack>,
    /// Live register state per thread (what a checkpoint captures).
    live_regs: Vec<RegisterFile>,
    /// NVM: the in-flight commit record, if a commit was interrupted.
    pending: Option<ProcessCommitRecord>,
    /// NVM: sequence number the next commit will use.
    next_sequence: u64,
    /// Spine mode's merge policy; `None` is eager apply.
    spine_cfg: Option<SpineConfig>,
}

/// A recovered execution state.
#[derive(Debug)]
pub struct RecoveredState {
    /// Per-thread registers as of the recovered checkpoint.
    pub regs: Vec<RegisterFile>,
    /// Sequence number of the recovered checkpoint.
    pub sequence: u64,
}

/// A sequence-coherence violation found by
/// [`PersistentProcess::verify_coherent`]: two parts of the recovered
/// state belong to different checkpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SequenceSkew {
    /// Human-readable description of the skewed component.
    pub detail: String,
}

impl std::fmt::Display for SequenceSkew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sequence skew: {}", self.detail)
    }
}

impl std::error::Error for SequenceSkew {}

impl PersistentProcess {
    /// Creates a persistent process with `threads` threads whose
    /// stacks occupy the given ranges.
    ///
    /// # Panics
    ///
    /// Panics if `stack_ranges` is empty.
    pub fn new(stack_ranges: &[VirtRange]) -> Self {
        assert!(
            !stack_ranges.is_empty(),
            "process needs at least one thread"
        );
        Self {
            registers: ProcessCheckpointStore::new(stack_ranges.len()),
            stacks: stack_ranges
                .iter()
                .enumerate()
                .map(|(tid, r)| (tid as u32, PersistentStack::new(tid as u32, *r)))
                .collect(),
            live_regs: vec![RegisterFile::default(); stack_ranges.len()],
            pending: None,
            next_sequence: 1,
            spine_cfg: None,
        }
    }

    /// [`Self::new`] in staged-delta spine mode: commits append delta
    /// batches instead of eagerly applying, governed by `cfg`'s merge
    /// policy (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `stack_ranges` is empty.
    pub fn new_with_spine(stack_ranges: &[VirtRange], cfg: SpineConfig) -> Self {
        let mut p = Self::new(stack_ranges);
        p.spine_cfg = Some(cfg);
        for stack in p.stacks.values_mut() {
            stack.size_spare_buffers(&cfg);
        }
        p
    }

    /// The installed spine merge policy (`None` in eager-apply mode).
    pub fn spine_config(&self) -> Option<SpineConfig> {
        self.spine_cfg
    }

    /// Total delta batches currently on all stacks' spines.
    pub fn spine_batches(&self) -> usize {
        self.stacks
            .values()
            .map(PersistentStack::spine_batches)
            .sum()
    }

    /// Total payload bytes currently on all stacks' spines.
    pub fn spine_bytes(&self) -> u64 {
        self.stacks.values().map(PersistentStack::spine_bytes).sum()
    }

    /// Folds every stack's spine into its persistent image regardless
    /// of the merge policy and returns the aggregate stats.
    pub fn merge_all_spines(&mut self) -> MergeStats {
        let mut total = MergeStats::default();
        for stack in self.stacks.values_mut() {
            let stats = stack.merge_spine();
            total.batches_folded += stats.batches_folded;
            total.input_bytes += stats.input_bytes;
            total.written_bytes += stats.written_bytes;
        }
        total
    }

    /// Mutable access to thread `tid`'s live registers.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist.
    pub fn regs_mut(&mut self, tid: u32) -> &mut RegisterFile {
        &mut self.live_regs[tid as usize]
    }

    /// Records a store into thread `tid`'s stack data plane.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist or the store leaves its
    /// stack range.
    pub fn record_store(&mut self, tid: u32, addr: prosper_memsim::addr::VirtAddr, bytes: &[u8]) {
        self.stacks
            .get_mut(&tid)
            .unwrap_or_else(|| panic!("thread {tid} not registered"))
            .record_store(addr, bytes);
    }

    /// The persistent stack of thread `tid`.
    pub fn stack(&self, tid: u32) -> &PersistentStack {
        &self.stacks[&tid]
    }

    /// Thread `tid`'s live registers.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist.
    pub fn regs(&self, tid: u32) -> &RegisterFile {
        &self.live_regs[tid as usize]
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.live_regs.len()
    }

    /// Sequence of the last fully-committed whole-process checkpoint.
    pub fn committed_sequence(&self) -> u64 {
        self.registers.committed_sequence
    }

    /// Commits one whole-process checkpoint — every thread's stack
    /// runs (from its bitmap inspection) and registers — through the
    /// engine, serial (see the module docs on the worker count).
    ///
    /// # Panics
    ///
    /// Panics if `runs_per_thread` misses a registered thread.
    pub fn commit(&mut self, runs_per_thread: &BTreeMap<u32, Vec<CopyRun>>) {
        // The no-op observer never fails the power.
        let _ = self.commit_with(runs_per_thread, 1, &());
    }

    /// The commit engine (see the module docs): [`Self::commit`] at an
    /// explicit worker count, reporting every boundary to `observer`.
    ///
    /// # Errors
    ///
    /// Returns [`CrashInjected`] when the observer failed the power;
    /// persistent state is left as the crash left it.
    ///
    /// # Panics
    ///
    /// Panics if `runs_per_thread` misses a registered thread.
    pub fn commit_with<O: CommitObserver + ?Sized>(
        &mut self,
        runs_per_thread: &BTreeMap<u32, Vec<CopyRun>>,
        workers: usize,
        observer: &O,
    ) -> Result<(), CrashInjected> {
        for tid in self.stacks.keys() {
            assert!(
                runs_per_thread.contains_key(tid),
                "no runs supplied for thread {tid}"
            );
        }
        let result = self.run_commit(runs_per_thread, workers, observer);
        let _ = observer.on(CommitEvent::End);
        result
    }

    fn run_commit<O: CommitObserver + ?Sized>(
        &mut self,
        runs_per_thread: &BTreeMap<u32, Vec<CopyRun>>,
        workers: usize,
        obs: &O,
    ) -> Result<(), CrashInjected> {
        let sequence = self.next_sequence;
        obs.on(CommitEvent::Begin {
            sequence,
            threads: self.stacks.len() as u32,
            workers,
        })?;
        // Phase one (parallel): stage every thread's runs into its own
        // NVM staging buffer — strictly per-thread state.
        let watch = telemetry::Stopwatch::start();
        Self::for_each_stack(&mut self.stacks, workers, |tid, stack| {
            stack.begin_stage_at(sequence);
            for (k, run) in runs_per_thread[&tid].iter().enumerate() {
                stack.stage_run(run);
                obs.on(CommitEvent::StageRun {
                    tid,
                    runs_staged: k as u32 + 1,
                    bytes: run.len,
                })?;
            }
            obs.on(CommitEvent::StageThread { tid, sequence })
        })?;
        let stage_ns = watch.elapsed_ns();
        // Seal (coordinator): the register file is staged into the
        // commit record (bookkeeping charged to the seal), then the
        // single durable write commits the checkpoint.
        let watch = telemetry::Stopwatch::start();
        self.pending = Some(ProcessCommitRecord {
            sequence,
            staged_regs: self.live_regs.clone(),
            sealed: false,
        });
        obs.on(CommitEvent::Staged)?;
        if let Some(record) = &mut self.pending {
            record.sealed = true;
        }
        obs.on(CommitEvent::Seal { sequence })?;
        let seal_ns = watch.elapsed_ns();
        // Phase two (parallel), register tail and retire.
        let watch = telemetry::Stopwatch::start();
        self.apply_record(workers, obs)?;
        let apply_ns = watch.elapsed_ns();
        // The deferred, policy-gated merge: everything on a spine is
        // sealed by construction and the commit above fully retired,
        // so no fold ever crosses an unsealed batch.
        let watch = telemetry::Stopwatch::start();
        let (mut merges, mut merged_bytes) = (0u64, 0u64);
        for (&tid, stack) in &mut self.stacks {
            if !self.spine_cfg.is_some_and(|cfg| stack.should_merge(&cfg)) {
                continue;
            }
            let stats = stack.fold_spine(|batches_folded, bytes| {
                obs.on(CommitEvent::MergeStep {
                    tid,
                    batches_folded,
                    bytes,
                })
            })?;
            merged_bytes += stats.written_bytes;
            merges += 1;
            obs.on(CommitEvent::MergeRetire {
                tid,
                upto: sequence,
            })?;
        }
        let merge_ns = watch.elapsed_ns();
        if telemetry::enabled() {
            let spine_batches = self.spine_cfg.map(|_| self.spine_batches() as i64);
            telemetry::with(|t| {
                let r = t.registry();
                r.gauge("prosper.commit.workers").set(workers as i64);
                r.histogram("prosper.commit.phase.stage_ns")
                    .record(stage_ns);
                r.histogram("prosper.commit.phase.seal_ns").record(seal_ns);
                r.histogram("prosper.commit.phase.apply_ns")
                    .record(apply_ns);
                if let Some(batches) = spine_batches {
                    r.histogram("prosper.commit.phase.merge_ns")
                        .record(merge_ns);
                    r.gauge("prosper.spine.batches").set(batches);
                }
                if merges > 0 {
                    r.counter("prosper.spine.merges").add(merges);
                    r.counter("prosper.spine.merged_bytes").add(merged_bytes);
                }
            });
        }
        Ok(())
    }

    /// Phase two of the sealed pending record (eager apply or spine
    /// append, parallel), the register tail and the retire. Idempotent,
    /// so recovery's redo replays it from any interruption point, and
    /// panic-free (`PA-PANIC004`). Staging tagged past the sealed
    /// sequence belongs to a commit that never sealed: discarded.
    fn apply_record<O: CommitObserver + ?Sized>(
        &mut self,
        workers: usize,
        obs: &O,
    ) -> Result<(), CrashInjected> {
        let Some(sequence) = self
            .pending
            .as_ref()
            .filter(|r| r.sealed)
            .map(|r| r.sequence)
        else {
            return Ok(());
        };
        let spine = self.spine_cfg.is_some();
        // Spine phase two is O(1) per stack: a fan-out would only add
        // its spawns, so it never fans out. The ledger still charges it
        // at the commit's worker count; that charge does not match the
        // engine and is kept only so ledger output stays byte-identical.
        let phase_two_workers = if spine { 1 } else { workers };
        Self::for_each_stack(&mut self.stacks, phase_two_workers, |tid, stack| {
            let staged = stack.staging_sequence();
            if staged > sequence {
                stack.discard_staging();
            } else if spine {
                // A stack whose batch is already on the spine (staged
                // below `sequence`) has nothing left to redo.
                if staged == sequence {
                    stack.seal_to_spine(sequence);
                    obs.on(CommitEvent::BatchAppend { tid, sequence })?;
                }
            } else {
                for k in 0..stack.staged_runs() {
                    stack.apply_run(k);
                    obs.on(CommitEvent::ApplyRun {
                        tid,
                        runs_applied: k as u32 + 1,
                        bytes: stack.staged_run_len(k),
                    })?;
                }
                stack.finish_apply(sequence);
                obs.on(CommitEvent::ApplyThread { tid, sequence })?;
            }
            Ok(())
        })?;
        obs.on(CommitEvent::PhaseTwoDone)?;
        if let Some(record) = &self.pending {
            for (tid, regs) in record.staged_regs.iter().enumerate() {
                self.registers.apply_thread_at(tid, *regs, sequence);
                obs.on(CommitEvent::RegisterSlot { tid: tid as u32 })?;
            }
        }
        self.registers.set_committed_sequence(sequence);
        self.pending = None;
        self.next_sequence = sequence + 1;
        obs.on(CommitEvent::Retire { sequence })
    }

    /// Virtual cost of one parallel phase: the makespan under work
    /// stealing, modelled as greedy list scheduling in tid order (each
    /// task lands on the least-loaded worker), plus a fixed dispatch
    /// overhead.
    fn stolen_phase_cost(tids: &[u32], workers: usize, per_tid: impl Fn(u32) -> u64) -> u64 {
        let workers = workers.clamp(1, tids.len().max(1));
        let mut load = vec![0u64; workers];
        for &t in tids {
            if let Some(min) = load.iter_mut().min() {
                *min += per_tid(t);
            }
        }
        commit_cost::PHASE_BASE_NS + load.into_iter().max().unwrap_or(0)
    }

    /// Runs `f` over every stack across at most `workers` scoped
    /// threads, each claiming the next unclaimed stack from a shared
    /// cursor, and returns the first crash `f` reported. A worker stops
    /// at its own crash; the observer stops the others at their next
    /// boundary.
    fn for_each_stack<F>(
        stacks: &mut BTreeMap<u32, PersistentStack>,
        workers: usize,
        f: F,
    ) -> Result<(), CrashInjected>
    where
        F: Fn(u32, &mut PersistentStack) -> Result<(), CrashInjected> + Sync,
    {
        let workers = workers.clamp(1, stacks.len().max(1));
        if workers == 1 {
            return stacks
                .iter_mut()
                .try_for_each(|(&tid, stack)| f(tid, stack));
        }
        let tasks: Vec<StackTask<'_>> = stacks
            .iter_mut()
            .map(|(&tid, stack)| Mutex::new(Some((tid, stack))))
            .collect();
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let work = || loop {
            // lint:allow(PA-ATOMIC007): work-queue ticket counter — only uniqueness matters; each task is published through its Mutex, not this index
            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                return Ok(());
            };
            if let Some((tid, stack)) = task.lock().ok().and_then(|mut t| t.take()) {
                f(tid, stack)?;
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .fold(Ok(()), Result::and)
        })
    }

    /// Simulates a power failure: all live registers and volatile
    /// stack images are lost.
    pub fn crash(&mut self) {
        for stack in self.stacks.values_mut() {
            stack.crash();
        }
        self.live_regs = vec![RegisterFile::default(); self.live_regs.len()];
    }

    /// Recovers the process to one coherent checkpoint: a sealed record
    /// has phase two **redone** (idempotently), landing every stack and
    /// register slot on its sequence; without one all staging is
    /// discarded and the previous checkpoint stands. Surviving spines
    /// are then folded into the persistent images.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if no complete checkpoint exists.
    pub fn recover(&mut self) -> Result<RecoveredState, NoValidCheckpoint> {
        self.recover_with(&())
    }

    /// [`Self::recover`] reporting one [`CommitEvent::Recover`] (the
    /// sequence redone, 0 if none, and the runs and bytes replayed) and
    /// a closing `End` to `observer`. The redo always runs to completion;
    /// a second power failure is another `crash` + `recover`. Panic-free
    /// (`PA-PANIC004`).
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if no complete checkpoint exists.
    pub fn recover_with<O: CommitObserver + ?Sized>(
        &mut self,
        observer: &O,
    ) -> Result<RecoveredState, NoValidCheckpoint> {
        let sealed = self
            .pending
            .as_ref()
            .filter(|r| r.sealed)
            .map(|r| r.sequence);
        let (mut runs, mut bytes) = (0u64, 0u64);
        for stack in self.stacks.values() {
            runs += stack.spine().iter().map(|b| b.runs() as u64).sum::<u64>();
            bytes += stack.spine_bytes();
            if sealed.is_some() {
                runs += stack.staged_runs() as u64;
                bytes += stack.staged_bytes();
            }
        }
        let _ = observer.on(CommitEvent::Recover {
            sequence: sealed.unwrap_or(0),
            threads: self.stacks.len() as u32,
            runs,
            bytes,
        });
        if sealed.is_some() {
            let _ = self.apply_record(1, &());
        } else if self.pending.take().is_some() {
            // The commit never sealed: discard it wholesale.
            for stack in self.stacks.values_mut() {
                stack.discard_staging();
            }
        }
        for stack in self.stacks.values_mut() {
            stack.merge_spine();
            stack.recover_after_crash();
        }
        let result = self.registers.recover().map(|regs| {
            self.live_regs.clone_from(&regs);
            RecoveredState {
                regs,
                sequence: self.registers.committed_sequence,
            }
        });
        let _ = observer.on(CommitEvent::End);
        result
    }

    /// Checks the cross-component sequence invariant: every thread's
    /// stack, every thread's register slot, and the process store
    /// itself agree on one committed sequence. The fault-injection
    /// harness runs this after every recovery.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceSkew`] naming the first disagreeing component.
    pub fn verify_coherent(&self) -> Result<u64, SequenceSkew> {
        let seq = self.registers.committed_sequence;
        for (tid, stack) in &self.stacks {
            if stack.committed_sequence() != seq {
                return Err(SequenceSkew {
                    detail: format!(
                        "thread {tid} stack at sequence {}, process at {seq}",
                        stack.committed_sequence()
                    ),
                });
            }
            // Spine-aware lookup: unmerged batches must form an
            // ascending, prefix-closed run of *committed* sequences —
            // a batch beyond the committed sequence would mean a merge
            // crossed an unsealed batch.
            let mut prev = 0u64;
            for batch in stack.spine() {
                if batch.sequence() <= prev {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} spine out of order: batch {} after {prev}",
                            batch.sequence()
                        ),
                    });
                }
                if batch.sequence() > seq {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} spine batch {} beyond committed sequence {seq}",
                            batch.sequence()
                        ),
                    });
                }
                prev = batch.sequence();
            }
        }
        if seq > 0 {
            let detailed = self
                .registers
                .recover_detailed()
                .map_err(|_| SequenceSkew {
                    detail: format!("process at sequence {seq} but registers unrecoverable"),
                })?;
            for (tid, (_, reg_seq)) in detailed.iter().enumerate() {
                if *reg_seq != seq {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} registers at sequence {reg_seq}, process at {seq}"
                        ),
                    });
                }
            }
        }
        Ok(seq)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use prosper_gemos::crash::CrashPlan;
    use prosper_memsim::addr::VirtAddr;

    /// Virtual cost of staging or applying `runs` for one thread.
    fn runs_cost(runs: &[CopyRun], per_run_ns: u64, per_byte_ns: u64) -> u64 {
        runs.iter().map(|r| per_run_ns + r.len * per_byte_ns).sum()
    }

    /// The virtual cost the stall ledger charges one clean eager commit
    /// at `workers`: both parallel phases under work stealing, the seal
    /// with its bookkeeping, and the register tail.
    fn ledger_commit_ns(tids: &[u32], workers: usize, runs: &BTreeMap<u32, Vec<CopyRun>>) -> u64 {
        let phase = |per_run: u64, per_byte: u64| {
            PersistentProcess::stolen_phase_cost(tids, workers, |tid| {
                runs_cost(&runs[&tid], per_run, per_byte)
            })
        };
        phase(commit_cost::STAGE_RUN_NS, commit_cost::STAGE_BYTE_NS)
            + commit_cost::SEAL_NS
            + tids.len() as u64 * commit_cost::BOOKKEEP_SLOT_NS
            + phase(commit_cost::APPLY_RUN_NS, commit_cost::APPLY_BYTE_NS)
            + tids.len() as u64 * commit_cost::REGISTER_SLOT_NS
    }

    fn ranges(n: u64) -> Vec<VirtRange> {
        (0..n)
            .map(|i| {
                let top = 0x7000_0000 + (i + 1) * 0x10_0000;
                VirtRange::new(VirtAddr::new(top - 0x8000), VirtAddr::new(top))
            })
            .collect()
    }

    fn full_runs(p: &PersistentProcess, tids: &[u32]) -> BTreeMap<u32, Vec<CopyRun>> {
        tids.iter()
            .map(|&tid| {
                let r = p.stack(tid).range();
                (
                    tid,
                    vec![CopyRun {
                        start: r.start(),
                        len: r.len(),
                    }],
                )
            })
            .collect()
    }

    /// A serial commit with the crash windows of `inj`.
    fn faulted(
        p: &mut PersistentProcess,
        runs: &BTreeMap<u32, Vec<CopyRun>>,
        inj: &mut FaultInjector,
    ) -> Result<(), CrashInjected> {
        p.commit_with(runs, 1, &CrashWindows::new(inj))
    }

    #[test]
    fn commit_binds_registers_and_memory() {
        let mut p = PersistentProcess::new(&ranges(2));
        let r0 = p.stack(0).range();
        p.record_store(0, r0.start() + 64, b"thread-zero");
        p.regs_mut(0).rip = 0x1111;
        p.regs_mut(1).rip = 0x2222;
        let runs = full_runs(&p, &[0, 1]);
        p.commit(&runs);

        // Post-commit mutations are lost at the crash.
        p.record_store(0, r0.start() + 64, b"overwrote!!");
        p.regs_mut(0).rip = 0x9999;
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 1);
        assert_eq!(rec.regs[0].rip, 0x1111);
        assert_eq!(rec.regs[1].rip, 0x2222);
        assert_eq!(
            p.stack(0).volatile().read(r0.start() + 64, 11),
            b"thread-zero"
        );
        assert_eq!(p.verify_coherent().unwrap(), 1);
    }

    #[test]
    fn recover_without_commit_fails() {
        let mut p = PersistentProcess::new(&ranges(1));
        p.crash();
        assert!(p.recover().is_err());
    }

    #[test]
    fn repeated_commits_recover_latest() {
        let mut p = PersistentProcess::new(&ranges(1));
        let runs = full_runs(&p, &[0]);
        for seq in 1..=3u64 {
            p.regs_mut(0).gpr[5] = seq * 7;
            p.commit(&runs);
        }
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 3);
        assert_eq!(rec.regs[0].gpr[5], 21);
    }

    #[test]
    #[should_panic(expected = "no runs supplied for thread")]
    fn missing_thread_runs_rejected() {
        let mut p = PersistentProcess::new(&ranges(2));
        let runs = full_runs(&p, &[0]); // thread 1 missing
        p.commit(&runs);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_process_rejected() {
        PersistentProcess::new(&[]);
    }

    /// Sets up a two-thread process with one clean commit at sequence
    /// 1 and distinct per-thread data staged for commit 2.
    fn two_thread_mid_commit_setup() -> (PersistentProcess, BTreeMap<u32, Vec<CopyRun>>) {
        let mut p = PersistentProcess::new(&ranges(2));
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 32, &[0x10 + tid as u8; 16]);
            p.regs_mut(tid).rip = 0x100 + u64::from(tid);
        }
        let runs = full_runs(&p, &[0, 1]);
        p.commit(&runs);
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 32, &[0x20 + tid as u8; 16]);
            p.regs_mut(tid).rip = 0x200 + u64::from(tid);
        }
        (p, runs)
    }

    /// Satellite regression: a crash **between two thread-stack
    /// applies** must not recover thread 0 at sequence 2 with thread 1
    /// at sequence 1. Under the pre-two-phase commit (each stack
    /// checkpointed independently) this exact schedule was torn.
    #[test]
    fn crash_between_thread_stack_applies_recovers_one_sequence() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        let err = faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::PostApplyThread { tid: 0 }),
        )
        .unwrap_err();
        assert_eq!(err.site, CrashSite::PostApplyThread { tid: 0 });
        p.crash();
        let rec = p.recover().unwrap();
        // The seal preceded the crash: recovery redoes the whole
        // commit, landing both stacks and the registers on sequence 2.
        assert_eq!(rec.sequence, 2);
        assert_eq!(p.verify_coherent().unwrap(), 2);
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            assert_eq!(
                p.stack(tid).volatile().read(r.start() + 32, 16),
                vec![0x20 + tid as u8; 16],
                "thread {tid} recovered the redone commit"
            );
            assert_eq!(rec.regs[tid as usize].rip, 0x200 + u64::from(tid));
        }
    }

    /// Satellite regression: a crash **between the stack applies and
    /// the register apply** must not recover stacks at sequence 2 with
    /// registers at sequence 1 — the torn state the two-step protocol
    /// exists to prevent.
    #[test]
    fn crash_between_stacks_and_registers_recovers_one_sequence() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        let err = faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::PostApplyPreRegisters),
        )
        .unwrap_err();
        assert_eq!(err.site, CrashSite::PostApplyPreRegisters);
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 2);
        assert_eq!(p.verify_coherent().unwrap(), 2);
        assert_eq!(rec.regs[0].rip, 0x200, "registers redone with the stacks");
        assert_eq!(rec.regs[1].rip, 0x201);
    }

    /// A crash before the seal discards the whole in-flight commit:
    /// everything recovers at the previous sequence.
    #[test]
    fn crash_before_seal_discards_whole_commit() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        for plan in [
            CrashPlan::AtSite(CrashSite::PreStage),
            CrashPlan::AtSite(CrashSite::MidStage {
                tid: 1,
                runs_staged: 1,
            }),
            CrashPlan::AtSite(CrashSite::PreSeal),
        ] {
            let mut inj = FaultInjector::new(plan);
            faulted(&mut p, &runs, &mut inj).unwrap_err();
            p.crash();
            let rec = p.recover().unwrap();
            assert_eq!(rec.sequence, 1, "pre-seal crash keeps sequence 1");
            assert_eq!(p.verify_coherent().unwrap(), 1);
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                assert_eq!(
                    p.stack(tid).volatile().read(r.start() + 32, 16),
                    vec![0x10 + tid as u8; 16]
                );
                assert_eq!(rec.regs[tid as usize].rip, 0x100 + u64::from(tid));
            }
            // Rebuild the live state the crash wiped, then retry.
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 32, &[0x20 + tid as u8; 16]);
                p.regs_mut(tid).rip = 0x200 + u64::from(tid);
            }
        }
        // The interrupted commits retried cleanly.
        p.commit(&runs);
        assert_eq!(p.verify_coherent().unwrap(), 2);
    }

    /// The parallel commit and the serial crash-windowed commit must
    /// land on byte-identical persistent state.
    #[test]
    fn parallel_commit_matches_serial() {
        let build = || {
            let mut p = PersistentProcess::new(&ranges(4));
            for tid in 0..4u32 {
                let r = p.stack(tid).range();
                for k in 0..8u64 {
                    p.record_store(tid, r.start() + k * 512, &[tid as u8 ^ k as u8; 64]);
                }
                p.regs_mut(tid).rip = 0x1000 + u64::from(tid);
                p.regs_mut(tid).gpr[3] = u64::from(tid) * 17;
            }
            p
        };
        let mut serial = build();
        let mut parallel = build();
        let runs = full_runs(&serial, &[0, 1, 2, 3]);
        faulted(&mut serial, &runs, &mut FaultInjector::disabled())
            .expect("a disabled injector never fires");
        parallel.commit_with(&runs, 4, &()).unwrap();
        assert_eq!(serial.committed_sequence(), parallel.committed_sequence());
        serial.crash();
        parallel.crash();
        let rs = serial.recover().unwrap();
        let rp = parallel.recover().unwrap();
        assert_eq!(rs.sequence, rp.sequence);
        for tid in 0..4u32 {
            let r = serial.stack(tid).range();
            assert_eq!(
                serial.stack(tid).volatile().read(r.start(), 4096),
                parallel.stack(tid).volatile().read(r.start(), 4096),
                "thread {tid} recovered identical bytes"
            );
            assert_eq!(rs.regs[tid as usize], rp.regs[tid as usize]);
        }
        assert_eq!(parallel.verify_coherent().unwrap(), 1);
    }

    /// Commits stay coherent at every worker width, including widths
    /// above the thread count and repeated commits on one process.
    #[test]
    fn commit_coherent_across_worker_counts() {
        let mut p = PersistentProcess::new(&ranges(8));
        let tids: Vec<u32> = (0..8).collect();
        let runs = full_runs(&p, &tids);
        for (i, workers) in [1usize, 2, 3, 8, 64].into_iter().enumerate() {
            for tid in 0..8u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 128, &[i as u8 + 1; 32]);
            }
            p.commit_with(&runs, workers, &()).unwrap();
            assert_eq!(p.committed_sequence(), i as u64 + 1);
            assert_eq!(p.verify_coherent().unwrap(), i as u64 + 1);
        }
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 5);
        let r = p.stack(7).range();
        assert_eq!(
            p.stack(7).volatile().read(r.start() + 128, 32),
            vec![5u8; 32],
            "last commit's bytes survive the crash"
        );
    }

    /// Double crash: a crash during recovery's redo (modelled as a
    /// second crash+recover without a completed first recovery) still
    /// converges to the committed checkpoint.
    #[test]
    fn repeated_recovery_is_idempotent() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::MidApply {
                tid: 0,
                runs_applied: 1,
            }),
        )
        .unwrap_err();
        for _ in 0..3 {
            p.crash();
            let rec = p.recover().unwrap();
            assert_eq!(rec.sequence, 2);
            assert_eq!(p.verify_coherent().unwrap(), 2);
        }
    }

    /// Recycled staging and batch buffers never leak a stale tail: one
    /// long run per stack, a merge (spine) or apply (eager), then
    /// shorter and disjoint runs. After every commit the batch holds
    /// exactly the staged bytes and the durable image equals the
    /// volatile one; the last commit crashes right after its seal, so
    /// recovery redoes exactly what was staged.
    #[test]
    fn recycled_buffers_never_leak_stale_bytes() {
        let rounds: [&[(u64, u64)]; 5] = [
            &[(0, 0x8000)],
            &[(0, 0x8000)],
            &[(0x100, 0x40), (0x4000, 0x10)],
            &[(0x2000, 8)],
            &[(0x40, 0x20), (0x7f00, 0x100)],
        ];
        for spine in [false, true] {
            for workers in [1usize, 2] {
                let mut p = if spine {
                    PersistentProcess::new_with_spine(&ranges(2), SpineConfig::merge_always())
                } else {
                    PersistentProcess::new(&ranges(2))
                };
                let ctx = format!("spine={spine} workers={workers}");
                for (round, layout) in rounds.iter().enumerate() {
                    let mut runs = BTreeMap::new();
                    for tid in 0..2u32 {
                        let base = p.stack(tid).range().start();
                        let fill = 0xA0 + round as u8 + 0x10 * tid as u8;
                        for &(off, len) in *layout {
                            p.record_store(tid, base + off, &vec![fill; len as usize]);
                        }
                        let tid_runs: Vec<CopyRun> = layout
                            .iter()
                            .map(|&(off, len)| CopyRun {
                                start: base + off,
                                len,
                            })
                            .collect();
                        runs.insert(tid, tid_runs);
                    }
                    let staged: u64 = layout.iter().map(|&(_, len)| len).sum();
                    if round + 1 == rounds.len() {
                        let mut inj = FaultInjector::at_site(CrashSite::PostSeal);
                        p.commit_with(&runs, workers, &CrashWindows::new(&mut inj))
                            .unwrap_err();
                        for tid in 0..2u32 {
                            assert_eq!(p.stack(tid).staged_bytes(), staged, "{ctx}");
                        }
                        break;
                    }
                    p.commit_with(&runs, workers, &()).unwrap();
                    for tid in 0..2u32 {
                        let stack = p.stack(tid);
                        let r = stack.range();
                        if let Some(batch) = stack.spine().last() {
                            assert_eq!(batch.bytes(), staged, "{ctx} round {round}");
                        }
                        assert_eq!(
                            stack.read_effective(r.start(), r.len() as usize),
                            stack.volatile().read(r.start(), r.len() as usize),
                            "{ctx} round {round} thread {tid}"
                        );
                    }
                }
                let truth: Vec<Vec<u8>> = (0..2u32)
                    .map(|tid| {
                        let r = p.stack(tid).range();
                        p.stack(tid).volatile().read(r.start(), r.len() as usize)
                    })
                    .collect();
                p.crash();
                assert_eq!(p.recover().unwrap().sequence, rounds.len() as u64, "{ctx}");
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    assert_eq!(
                        p.stack(tid).volatile().read(r.start(), r.len() as usize),
                        truth[tid as usize],
                        "{ctx} thread {tid}: recovered image"
                    );
                }
            }
        }
    }

    /// Records the thread each spine batch append ran on.
    #[derive(Default)]
    struct AppendThreads(Mutex<Vec<std::thread::ThreadId>>);

    impl CommitObserver for AppendThreads {
        fn on(&self, event: CommitEvent) -> Result<(), CrashInjected> {
            if let CommitEvent::BatchAppend { .. } = event {
                if let Ok(mut ids) = self.0.lock() {
                    ids.push(std::thread::current().id());
                }
            }
            Ok(())
        }
    }

    /// Spine phase two does O(1) work per stack, so it runs on the
    /// coordinator at any worker count; the ledger still charges it at
    /// the commit's worker count.
    #[test]
    fn spine_phase_two_never_fans_out() {
        let mut p = PersistentProcess::new_with_spine(&ranges(4), SpineConfig::lazy(64));
        let tids = [0u32, 1, 2, 3];
        let runs = full_runs(&p, &tids);
        let threads = AppendThreads::default();
        p.commit_with(&runs, 4, &threads).unwrap();
        let ids = threads.0.into_inner().unwrap();
        assert_eq!(ids.len(), 4, "one batch append per stack");
        assert!(ids.iter().all(|&id| id == std::thread::current().id()));
        assert_eq!(p.spine_batches(), 4);
    }

    /// Satellite regression (PR 7): the stage phase covers only
    /// staging work. Coordinator bookkeeping — staging the register
    /// file into the commit record — is charged to the seal phase, in
    /// the ledger and in the cost model alike.
    #[test]
    fn stage_phase_excludes_coordinator_bookkeeping() {
        let mut p = PersistentProcess::new(&ranges(3));
        let tids: Vec<u32> = vec![0, 1, 2];
        for &tid in &tids {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 64, &[0x5a; 32]);
        }
        let runs = full_runs(&p, &tids);
        let acct = StallAccountant::new_virtual();
        p.commit_with(&runs, 1, &StallLedger::new(&acct)).unwrap();
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        let expected_stage = PersistentProcess::stolen_phase_cost(&tids, 1, |tid| {
            runs_cost(
                &runs[&tid],
                commit_cost::STAGE_RUN_NS,
                commit_cost::STAGE_BYTE_NS,
            )
        });
        let expected_seal =
            commit_cost::SEAL_NS + tids.len() as u64 * commit_cost::BOOKKEEP_SLOT_NS;
        for &tid in &tids {
            let of_cause = |cause: StallCause| -> u64 {
                snap.segments
                    .iter()
                    .filter(|s| s.tid == tid && s.cause == cause)
                    .map(telemetry::StallSegment::duration_ns)
                    .sum()
            };
            assert_eq!(
                of_cause(StallCause::Stage),
                expected_stage,
                "thread {tid}: stage segment must be staging work only"
            );
            assert_eq!(
                of_cause(StallCause::Seal),
                expected_seal,
                "thread {tid}: bookkeeping belongs to the seal segment"
            );
        }
    }

    /// Drives `commits` identical store/commit rounds through a spine
    /// process and an eager twin, returning both.
    fn twin_processes(commits: u64, cfg: SpineConfig) -> (PersistentProcess, PersistentProcess) {
        let mut spine = PersistentProcess::new_with_spine(&ranges(2), cfg);
        let mut eager = PersistentProcess::new(&ranges(2));
        for seq in 0..commits {
            for p in [&mut spine, &mut eager] {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    // Hot word rewritten every round + one moving cold run.
                    p.record_store(tid, r.start() + 0x100, &seq.to_le_bytes());
                    p.record_store(tid, r.start() + 0x800 + seq * 32, &[seq as u8; 16]);
                    p.regs_mut(tid).rip = 0x1000 + seq;
                }
                let runs: BTreeMap<u32, Vec<CopyRun>> = (0..2u32)
                    .map(|tid| {
                        let r = p.stack(tid).range();
                        (
                            tid,
                            vec![
                                CopyRun {
                                    start: r.start() + 0x100,
                                    len: 8,
                                },
                                CopyRun {
                                    start: r.start() + 0x800 + seq * 32,
                                    len: 16,
                                },
                            ],
                        )
                    })
                    .collect();
                p.commit(&runs);
            }
        }
        (spine, eager)
    }

    #[test]
    fn spine_commit_keeps_apply_copy_off_critical_path() {
        // A lazy policy never merges during the run: every commit's
        // phase two is an O(1) batch append, and all batches sit on
        // the spine until explicitly drained.
        let (mut spine, eager) = twin_processes(4, SpineConfig::lazy(64));
        assert_eq!(spine.committed_sequence(), eager.committed_sequence());
        assert_eq!(
            spine.spine_batches(),
            2 * 4,
            "one batch per stack per commit"
        );
        // The persistent images lag until the drain...
        let stats = spine.merge_all_spines();
        assert_eq!(stats.batches_folded, 8);
        assert!(
            stats.written_bytes < stats.input_bytes,
            "the repeated hot word must dedup in the fold"
        );
        // ...and then match eager apply byte for byte.
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .persistent()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: spine fold differs from eager apply"
            );
        }
    }

    #[test]
    fn spine_policy_merges_during_commit_and_stays_coherent() {
        let (mut spine, eager) = twin_processes(6, SpineConfig::merge_always());
        // merge_always folds after every commit, so at most the
        // freshest batch per stack survives — here none, because the
        // policy fires while the spine holds two.
        assert!(
            spine.spine_batches() <= 2,
            "merge_always must keep the spine short, got {}",
            spine.spine_batches()
        );
        spine.merge_all_spines();
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .persistent()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: spine fold differs from eager apply"
            );
        }
        assert_eq!(spine.verify_coherent().unwrap(), 6);
    }

    #[test]
    fn spine_recovery_folds_to_eager_image() {
        let (mut spine, eager) = twin_processes(5, SpineConfig::lazy(64));
        spine.crash();
        let rec = spine.recover().unwrap();
        assert_eq!(rec.sequence, 5);
        assert_eq!(spine.verify_coherent().unwrap(), 5);
        assert_eq!(spine.spine_batches(), 0, "recovery folds the whole spine");
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .volatile()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: recovered image differs from eager apply"
            );
            assert_eq!(spine.regs(tid).rip, 0x1000 + 4);
        }
    }

    #[test]
    fn spine_crash_sites_recover_on_the_committed_sequence() {
        // Walk every crash site the spine-mode fault-injected commit
        // exposes; all spine sites are post-seal, so recovery must
        // land on the sealed sequence with the full payload visible.
        let cfg = SpineConfig::merge_always();
        let mut probe_p = PersistentProcess::new_with_spine(&ranges(2), cfg);
        // Two warm-up commits put batches on the spine so the third
        // commit's merge policy fires and MidMerge/MergeRetire appear.
        let sites = {
            let mut inj = FaultInjector::new(CrashPlan::Record);
            for round in 0..3u64 {
                for tid in 0..2u32 {
                    let r = probe_p.stack(tid).range();
                    probe_p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
                }
                let runs = partial_runs(&probe_p, 0x100, 8);
                faulted(&mut probe_p, &runs, &mut inj).expect("record mode never fires");
            }
            inj.crossed().to_vec()
        };
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::BatchSeal { .. })),
            "spine commit must cross a batch-seal site"
        );
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::MidMerge { .. })),
            "merge_always must cross a mid-merge site"
        );
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::MergeRetire { .. })),
            "merge_always must cross a merge-retire site"
        );
        for (idx, site) in sites.iter().enumerate() {
            let mut p = PersistentProcess::new_with_spine(&ranges(2), cfg);
            let mut inj = FaultInjector::new(CrashPlan::AtIndex(idx as u64));
            let mut expected = 0u64;
            let mut crashed = None;
            for round in 0..3u64 {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
                }
                let runs = partial_runs(&p, 0x100, 8);
                match faulted(&mut p, &runs, &mut inj) {
                    Ok(()) => expected = round + 1,
                    Err(c) => {
                        if c.site.is_post_seal() {
                            expected = round + 1;
                        }
                        crashed = Some(c.site);
                        break;
                    }
                }
            }
            let crashed = crashed.unwrap_or_else(|| panic!("site {idx} ({site}) never fired"));
            assert_eq!(crashed, *site, "enumeration must be deterministic");
            p.crash();
            if expected == 0 {
                assert!(p.recover().is_err(), "site {site}: nothing to recover");
                continue;
            }
            let rec = p.recover().unwrap();
            assert_eq!(
                rec.sequence, expected,
                "site {site}: wrong recovered sequence"
            );
            assert_eq!(p.verify_coherent().unwrap(), expected);
            if expected > 0 {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    assert_eq!(
                        p.stack(tid).volatile().read(r.start() + 0x100, 8),
                        vec![(expected - 1) as u8; 8],
                        "site {site}: payload must match sequence {expected}"
                    );
                }
            }
        }
    }

    fn partial_runs(p: &PersistentProcess, offset: u64, len: u64) -> BTreeMap<u32, Vec<CopyRun>> {
        (0..p.threads() as u32)
            .map(|tid| {
                let r = p.stack(tid).range();
                (
                    tid,
                    vec![CopyRun {
                        start: r.start() + offset,
                        len,
                    }],
                )
            })
            .collect()
    }

    #[test]
    fn spine_commit_attributes_merge_stalls() {
        let acct = StallAccountant::new_virtual();
        let mut p = PersistentProcess::new_with_spine(&ranges(2), SpineConfig::merge_always());
        for round in 0..2u64 {
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
            }
            let runs = partial_runs(&p, 0x100, 8);
            p.commit_with(&runs, 1, &StallLedger::new(&acct)).unwrap();
        }
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        assert!(
            snap.segments.iter().any(|s| s.cause == StallCause::Merge),
            "merge_always under attribution must record Merge segments"
        );
    }

    /// Commits three rounds of per-thread stores at `workers` through
    /// `observe`, which picks the observer for each commit.
    fn three_rounds(
        spine: bool,
        workers: usize,
        mut commit: impl FnMut(&mut PersistentProcess, &BTreeMap<u32, Vec<CopyRun>>, usize),
    ) -> PersistentProcess {
        let mut p = if spine {
            PersistentProcess::new_with_spine(&ranges(2), SpineConfig::merge_always())
        } else {
            PersistentProcess::new(&ranges(2))
        };
        for round in 0..3u64 {
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 0x100 * (round + 1), &[round as u8 + 1; 48]);
                p.regs_mut(tid).rip = 0x500 + round;
            }
            let runs = full_runs(&p, &[0, 1]);
            commit(&mut p, &runs, workers);
        }
        p
    }

    /// One charging rule: the same clean commits charged through a
    /// disabled injector's crash windows and through the plain ledger
    /// leave byte-identical ledgers and byte-identical persistent
    /// state, in eager and spine mode, serial and parallel.
    #[test]
    fn crash_windows_charge_exactly_like_the_plain_ledger() {
        for spine in [false, true] {
            for workers in [1usize, 2] {
                let plain_acct = StallAccountant::new_virtual();
                let plain = three_rounds(spine, workers, |p, runs, w| {
                    p.commit_with(runs, w, &StallLedger::new(&plain_acct))
                        .unwrap();
                });
                let faulted_acct = StallAccountant::new_virtual();
                let mut inj = FaultInjector::disabled();
                let windowed = three_rounds(spine, workers, |p, runs, w| {
                    let ledger = StallLedger::new(&faulted_acct);
                    p.commit_with(runs, w, &CrashWindows::with(&mut inj, ledger))
                        .unwrap();
                });
                let (a, b) = (plain_acct.snapshot(), faulted_acct.snapshot());
                a.verify_conservation().unwrap();
                assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap(),
                    "spine={spine} workers={workers}: ledgers differ"
                );
                for tid in 0..2u32 {
                    let r = plain.stack(tid).range();
                    assert_eq!(
                        plain
                            .stack(tid)
                            .persistent()
                            .read(r.start(), r.len() as usize),
                        windowed
                            .stack(tid)
                            .persistent()
                            .read(r.start(), r.len() as usize),
                        "spine={spine} workers={workers} thread {tid}: persistent images differ"
                    );
                    assert_eq!(plain.stack(tid).spine(), windowed.stack(tid).spine());
                }
                assert_eq!(plain.committed_sequence(), windowed.committed_sequence());
            }
        }
    }

    /// A clean eager commit's ledger window is exactly its virtual
    /// model: each phase charged once from `stolen_phase_cost`.
    #[test]
    fn clean_commit_window_matches_the_virtual_model() {
        let tids = [0u32, 1, 2];
        for workers in [1usize, 2, 3] {
            let mut p = PersistentProcess::new(&ranges(3));
            let runs: BTreeMap<u32, Vec<CopyRun>> = tids
                .iter()
                .map(|&tid| {
                    let r = p.stack(tid).range();
                    let len = 64 * (u64::from(tid) + 1);
                    (
                        tid,
                        vec![
                            CopyRun {
                                start: r.start(),
                                len
                            };
                            tid as usize + 1
                        ],
                    )
                })
                .collect();
            let acct = StallAccountant::new_virtual();
            p.commit_with(&runs, workers, &StallLedger::new(&acct))
                .unwrap();
            let snap = acct.snapshot();
            snap.verify_conservation().unwrap();
            let modelled = ledger_commit_ns(&tids, workers, &runs);
            for w in &snap.windows {
                assert_eq!(w.duration_ns(), modelled, "workers={workers}");
            }
        }
    }

    /// A crash fired on one worker of a parallel phase stops the whole
    /// commit: before the seal recovery keeps the previous checkpoint,
    /// after it recovery redoes the commit — at any worker count.
    #[test]
    fn parallel_crash_recovers_on_one_sequence() {
        for workers in [2usize, 4] {
            for (site, expected) in [
                (
                    CrashSite::MidStage {
                        tid: 1,
                        runs_staged: 1,
                    },
                    1,
                ),
                (
                    CrashSite::MidApply {
                        tid: 1,
                        runs_applied: 1,
                    },
                    2,
                ),
                (CrashSite::PostApplyThread { tid: 0 }, 2),
            ] {
                let (mut p, runs) = two_thread_mid_commit_setup();
                let mut inj = FaultInjector::at_site(site);
                let err = p
                    .commit_with(&runs, workers, &CrashWindows::new(&mut inj))
                    .unwrap_err();
                assert_eq!(err.site, site);
                p.crash();
                let rec = p.recover().unwrap();
                assert_eq!(rec.sequence, expected, "workers={workers} site {site}");
                assert_eq!(p.verify_coherent().unwrap(), expected);
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    let byte = if expected == 2 { 0x20 } else { 0x10 };
                    assert_eq!(
                        p.stack(tid).volatile().read(r.start() + 32, 16),
                        vec![byte + tid as u8; 16],
                        "workers={workers} site {site} thread {tid}"
                    );
                }
            }
        }
    }
}
