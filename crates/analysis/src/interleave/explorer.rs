//! Exhaustive bounded-preemption schedule exploration with
//! vector-clock race detection.
//!
//! The explorer is generic over a [`ModelProgram`]: any model that
//! exposes per-thread scripts over a cloneable state, semaphore-based
//! blocking, and invariant checks can be explored. Two models ride on
//! it today — the static commit-protocol skeleton ([`Program`]) and
//! the data-dependent allocator model
//! (`crate::allocmodel::AllocModel`).
//!
//! The engine runs a model under every schedule reachable within a
//! preemption bound (a context switch away from a still-enabled
//! thread counts as a preemption; switches at blocking points are
//! free). Each executed step advances the running thread's vector
//! clock; release/acquire pairs on the model semaphores transfer
//! clocks, and every shared-location access is checked for
//! happens-before ordering against the location's last writer and
//! concurrent readers. Model-specific invariants run after every step
//! ([`ModelProgram::check_step`]) and at every completed schedule
//! ([`ModelProgram::check_leaf`]).
//!
//! # Explored-state memoization
//!
//! With [`ExplorerConfig::memoize`] set, the engine deduplicates
//! states by a model-supplied fingerprint
//! ([`ModelProgram::fingerprint`]) combined with the semaphore
//! counts, last-run thread, and preemption budget: a state reached a
//! second time has its entire subtree pruned, since every state
//! reachable from it was already visited (and step-level invariants
//! checked) on the first visit. This keeps per-*state* invariant
//! coverage exhaustive while cutting the schedule count by orders of
//! magnitude. Two caveats, which is why memoization is opt-in: leaf
//! checks over full event *histories* only see the first visit's
//! continuations, and race reports may miss clock configurations
//! unique to pruned paths. Models whose fingerprint returns `None`
//! (the commit [`Program`], whose order checker is history-based) are
//! never pruned.

use super::model::{Access, Program, Step, SyncAction};
use super::order::{check_order, OrderEvent, OrderViolation};
use super::vclock::VClock;
use std::collections::{BTreeSet, HashSet};
use std::fmt::Display;
use std::hash::{Hash, Hasher};

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Maximum context switches away from a still-enabled thread.
    pub preemption_bound: usize,
    /// Hard cap on completed schedules; exceeding it sets
    /// [`ExploreReport::truncated`].
    pub max_schedules: u64,
    /// Prune states already explored (see the module docs for the
    /// soundness trade-off). Ignored by models without a fingerprint.
    pub memoize: bool,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 2_000_000,
            memoize: false,
        }
    }
}

/// The engine-visible effect of one executed model step.
#[derive(Clone, Debug, Default)]
pub struct StepEffect {
    /// Semaphore operation the step performed, if any. An `Acquire`
    /// must already have been admitted by [`ModelProgram::enabled`].
    pub sync: Option<SyncAction>,
    /// Shared-location accesses (checked for happens-before races).
    pub accesses: Vec<Access>,
    /// Human-readable label for race reports.
    pub label: &'static str,
}

/// A model the generic engine can explore: per-thread scripts over a
/// cloneable state, semaphore gating, and invariant checks.
pub trait ModelProgram {
    /// Mutable model state threaded through one schedule.
    type State: Clone;
    /// Model-specific invariant violation.
    type Violation: Display;

    /// Number of model threads.
    fn thread_count(&self) -> usize;
    /// Number of counting semaphores (release/acquire edges).
    fn sync_count(&self) -> usize {
        0
    }
    /// Display name per thread.
    fn thread_names(&self) -> Vec<String>;
    /// Display name per shared location (sizes the race-state table).
    fn location_names(&self) -> Vec<String> {
        Vec::new()
    }
    /// The initial model state.
    fn init_state(&self) -> Self::State;
    /// True when `tid` has no further steps.
    fn thread_done(&self, state: &Self::State, tid: usize) -> bool;
    /// True when `tid`'s next step can execute given the semaphore
    /// counts (and any model-internal gating).
    fn enabled(&self, state: &Self::State, tid: usize, sem_counts: &[u64]) -> bool;
    /// Executes `tid`'s next step, mutating the state.
    fn step(&self, state: &mut Self::State, tid: usize) -> StepEffect;
    /// Invariants checked after every executed step.
    fn check_step(&self, _state: &Self::State) -> Vec<Self::Violation> {
        Vec::new()
    }
    /// Invariants checked at every completed (non-deadlocked)
    /// schedule.
    fn check_leaf(&self, _state: &Self::State) -> Vec<Self::Violation> {
        Vec::new()
    }
    /// Stable state fingerprint for explored-state memoization, or
    /// `None` when the model's checks are history-dependent and
    /// pruning would be unsound.
    fn fingerprint(&self, _state: &Self::State) -> Option<u64> {
        None
    }
}

/// A data race between two threads on one location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Location name from the model's naming table.
    pub location: String,
    /// First involved thread (the earlier, unordered accessor).
    pub thread_a: String,
    /// Second involved thread (the racing accessor).
    pub thread_b: String,
    /// Step label of the racing access.
    pub label: String,
    /// The schedule (thread id per step) that exhibited the race.
    pub schedule: Vec<usize>,
}

/// Everything the generic engine found for one model.
#[derive(Clone, Debug)]
pub struct ModelReport<V> {
    /// Completed schedules explored.
    pub schedules: u64,
    /// True when `max_schedules` stopped exploration early.
    pub truncated: bool,
    /// Schedules that deadlocked (no enabled thread before
    /// completion).
    pub deadlocks: u64,
    /// Subtrees pruned by explored-state memoization.
    pub memo_hits: u64,
    /// Distinct data races (deduplicated by location + thread pair).
    pub races: Vec<RaceReport>,
    /// Distinct invariant violations with a witness schedule each.
    pub violations: Vec<(V, Vec<usize>)>,
}

impl<V> Default for ModelReport<V> {
    fn default() -> Self {
        Self {
            schedules: 0,
            truncated: false,
            deadlocks: 0,
            memo_hits: 0,
            races: Vec::new(),
            violations: Vec::new(),
        }
    }
}

impl<V> ModelReport<V> {
    /// True when no race, violation, or deadlock was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.violations.is_empty() && self.deadlocks == 0
    }
}

/// Everything the explorer found for the commit [`Program`].
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Completed schedules explored.
    pub schedules: u64,
    /// True when `max_schedules` stopped exploration early.
    pub truncated: bool,
    /// Schedules that deadlocked (no enabled thread before
    /// completion).
    pub deadlocks: u64,
    /// Subtrees pruned by explored-state memoization (always 0 for
    /// the commit program, whose checker is history-based).
    pub memo_hits: u64,
    /// Distinct data races (deduplicated by location + thread pair).
    pub races: Vec<RaceReport>,
    /// Distinct commit-order violations with a witness schedule each.
    pub order_violations: Vec<(OrderViolation, Vec<usize>)>,
}

impl ExploreReport {
    /// True when no race, order violation, or deadlock was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.order_violations.is_empty() && self.deadlocks == 0
    }
}

#[derive(Clone, Debug, Default)]
struct SyncState {
    count: u64,
    vc: VClock,
}

#[derive(Clone, Debug, Default)]
struct LocState {
    last_write: Option<(usize, VClock)>,
    reads: Vec<(usize, VClock)>,
}

#[derive(Clone, Debug)]
struct EngineState<S> {
    model: S,
    tvc: Vec<VClock>,
    syncs: Vec<SyncState>,
    locs: Vec<LocState>,
    schedule: Vec<usize>,
    last_tid: Option<usize>,
    preemptions: usize,
}

struct Engine<'a, M: ModelProgram> {
    model: &'a M,
    cfg: ExplorerConfig,
    thread_names: Vec<String>,
    loc_names: Vec<String>,
    report: ModelReport<M::Violation>,
    seen_races: BTreeSet<(usize, usize, usize)>,
    seen_violations: BTreeSet<String>,
    memo: HashSet<u64>,
}

/// Explores every schedule of `model` within the bounds of `cfg`.
#[must_use]
pub fn explore_model<M: ModelProgram>(
    model: &M,
    cfg: &ExplorerConfig,
) -> ModelReport<M::Violation> {
    let threads = model.thread_count();
    let loc_names = model.location_names();
    let init = EngineState {
        model: model.init_state(),
        tvc: (0..threads)
            .map(|t| {
                let mut vc = VClock::new(threads);
                vc.tick(t);
                vc
            })
            .collect(),
        syncs: (0..model.sync_count())
            .map(|_| SyncState {
                count: 0,
                vc: VClock::new(threads),
            })
            .collect(),
        locs: (0..loc_names.len()).map(|_| LocState::default()).collect(),
        schedule: Vec::new(),
        last_tid: None,
        preemptions: 0,
    };
    let mut engine = Engine {
        model,
        cfg: *cfg,
        thread_names: model.thread_names(),
        loc_names,
        report: ModelReport::default(),
        seen_races: BTreeSet::new(),
        seen_violations: BTreeSet::new(),
        memo: HashSet::new(),
    };
    engine.dfs(init);
    engine.report
}

impl<M: ModelProgram> Engine<'_, M> {
    fn enabled(&self, state: &EngineState<M::State>, tid: usize) -> bool {
        !self.model.thread_done(&state.model, tid) && {
            let counts: Vec<u64> = state.syncs.iter().map(|s| s.count).collect();
            self.model.enabled(&state.model, tid, &counts)
        }
    }

    /// Prunes the subtree when this state (model fingerprint +
    /// semaphore counts + scheduling budget) was already explored.
    fn prune(&mut self, state: &EngineState<M::State>) -> bool {
        if !self.cfg.memoize {
            return false;
        }
        let Some(fp) = self.model.fingerprint(&state.model) else {
            return false;
        };
        let mut h = std::collections::hash_map::DefaultHasher::new();
        fp.hash(&mut h);
        for s in &state.syncs {
            s.count.hash(&mut h);
        }
        state.last_tid.hash(&mut h);
        state.preemptions.hash(&mut h);
        if self.memo.insert(h.finish()) {
            return false;
        }
        self.report.memo_hits += 1;
        true
    }

    /// Runs one step of `tid`, updating clocks, race state, and
    /// invariant findings.
    fn exec(&mut self, state: &mut EngineState<M::State>, tid: usize) {
        let effect = self.model.step(&mut state.model, tid);
        state.schedule.push(tid);
        state.tvc[tid].tick(tid);
        match effect.sync {
            Some(SyncAction::Acquire { sync, .. }) => {
                let vc = state.syncs[sync].vc.clone();
                state.tvc[tid].join(&vc);
            }
            Some(SyncAction::Release(sync)) => {
                state.syncs[sync].count += 1;
                let vc = state.tvc[tid].clone();
                state.syncs[sync].vc.join(&vc);
            }
            None => {}
        }
        for &access in &effect.accesses {
            let vc = state.tvc[tid].clone();
            match access {
                Access::Read(loc) => {
                    if let Some((wt, wvc)) = &state.locs[loc].last_write {
                        if *wt != tid && wvc.concurrent(&vc) {
                            self.record_race(loc, *wt, tid, effect.label, &state.schedule);
                        }
                    }
                    let entry = &mut state.locs[loc].reads;
                    entry.retain(|(t, _)| *t != tid);
                    entry.push((tid, vc));
                }
                Access::Write(loc) => {
                    if let Some((wt, wvc)) = &state.locs[loc].last_write {
                        if *wt != tid && wvc.concurrent(&vc) {
                            self.record_race(loc, *wt, tid, effect.label, &state.schedule);
                        }
                    }
                    for (rt, rvc) in &state.locs[loc].reads {
                        if *rt != tid && rvc.concurrent(&vc) {
                            self.record_race(loc, *rt, tid, effect.label, &state.schedule);
                        }
                    }
                    state.locs[loc].reads.clear();
                    state.locs[loc].last_write = Some((tid, vc));
                }
            }
        }
        state.last_tid = Some(tid);
        for v in self.model.check_step(&state.model) {
            self.record_violation(v, &state.schedule);
        }
    }

    fn record_race(&mut self, loc: usize, a: usize, b: usize, label: &str, schedule: &[usize]) {
        let key = (loc, a.min(b), a.max(b));
        if self.seen_races.insert(key) {
            self.report.races.push(RaceReport {
                location: self.loc_names[loc].clone(),
                thread_a: self.thread_names[a.min(b)].clone(),
                thread_b: self.thread_names[a.max(b)].clone(),
                label: label.to_owned(),
                schedule: schedule.to_vec(),
            });
        }
    }

    fn record_violation(&mut self, v: M::Violation, schedule: &[usize]) {
        let key = v.to_string();
        if self.seen_violations.insert(key) {
            self.report.violations.push((v, schedule.to_vec()));
        }
    }

    fn leaf(&mut self, state: &EngineState<M::State>, deadlocked: bool) {
        self.report.schedules += 1;
        if deadlocked {
            self.report.deadlocks += 1;
            return;
        }
        for v in self.model.check_leaf(&state.model) {
            self.record_violation(v, &state.schedule);
        }
    }

    fn dfs(&mut self, mut state: EngineState<M::State>) {
        loop {
            if self.report.truncated || self.report.schedules >= self.cfg.max_schedules {
                self.report.truncated = true;
                return;
            }
            if self.prune(&state) {
                return;
            }
            let threads = self.model.thread_count();
            let done = (0..threads).all(|t| self.model.thread_done(&state.model, t));
            if done {
                self.leaf(&state, false);
                return;
            }
            let enabled: Vec<usize> = (0..threads).filter(|&t| self.enabled(&state, t)).collect();
            if enabled.is_empty() {
                self.leaf(&state, true);
                return;
            }
            // Choice set under the preemption bound: continuing the
            // last-run thread is free; switching away from it while
            // it is still enabled costs one preemption.
            let last_enabled = state.last_tid.is_some_and(|t| enabled.contains(&t));
            let choices: Vec<usize> = if last_enabled {
                if state.preemptions >= self.cfg.preemption_bound {
                    vec![state.last_tid.unwrap_or(enabled[0])]
                } else {
                    enabled
                }
            } else {
                enabled
            };
            if choices.len() == 1 {
                // No branching: run in place without cloning.
                self.exec(&mut state, choices[0]);
                continue;
            }
            for (i, &tid) in choices.iter().enumerate() {
                let preempt = last_enabled && state.last_tid != Some(tid);
                if i + 1 == choices.len() {
                    if preempt {
                        state.preemptions += 1;
                    }
                    self.exec(&mut state, tid);
                    break;
                }
                let mut branch = state.clone();
                if preempt {
                    branch.preemptions += 1;
                }
                self.exec(&mut branch, tid);
                self.dfs(branch);
                if self.report.truncated {
                    return;
                }
            }
        }
    }
}

/// Per-schedule state of a static [`Program`]: thread cursors plus
/// the commit-order event trace.
#[derive(Clone, Debug)]
pub struct ProgramState {
    pc: Vec<usize>,
    trace: Vec<OrderEvent>,
}

impl ModelProgram for Program {
    type State = ProgramState;
    type Violation = OrderViolation;

    fn thread_count(&self) -> usize {
        self.threads.len()
    }

    fn sync_count(&self) -> usize {
        self.syncs
    }

    fn thread_names(&self) -> Vec<String> {
        self.thread_names.clone()
    }

    fn location_names(&self) -> Vec<String> {
        self.locations.clone()
    }

    fn init_state(&self) -> ProgramState {
        ProgramState {
            pc: vec![0; self.threads.len()],
            trace: Vec::new(),
        }
    }

    fn thread_done(&self, state: &ProgramState, tid: usize) -> bool {
        state.pc[tid] >= self.threads[tid].len()
    }

    fn enabled(&self, state: &ProgramState, tid: usize, sem_counts: &[u64]) -> bool {
        let Some(step) = self.threads[tid].get(state.pc[tid]) else {
            return false;
        };
        match step.sync {
            Some(SyncAction::Acquire { sync, need }) => sem_counts[sync] >= need,
            _ => true,
        }
    }

    fn step(&self, state: &mut ProgramState, tid: usize) -> StepEffect {
        let step: &Step = &self.threads[tid][state.pc[tid]];
        state.pc[tid] += 1;
        if let Some(event) = step.event {
            state.trace.push(event);
        }
        StepEffect {
            sync: step.sync,
            accesses: step.accesses.clone(),
            label: step.label,
        }
    }

    fn check_leaf(&self, state: &ProgramState) -> Vec<OrderViolation> {
        check_order(&state.trace)
    }
}

/// Explores every schedule of the commit `program` within the bounds
/// of `cfg`.
#[must_use]
pub fn explore(program: &Program, cfg: &ExplorerConfig) -> ExploreReport {
    let r = explore_model(program, cfg);
    ExploreReport {
        schedules: r.schedules,
        truncated: r.truncated,
        deadlocks: r.deadlocks,
        memo_hits: r.memo_hits,
        races: r.races,
        order_violations: r.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::model::{commit_program, Bug, CommitConfig};

    fn run(bug: Bug, workers: usize, sequences: u64, bound: usize) -> ExploreReport {
        let program = commit_program(&CommitConfig {
            workers,
            stacks: workers.max(2),
            sequences,
            bug,
        });
        explore(
            &program,
            &ExplorerConfig {
                preemption_bound: bound,
                max_schedules: 2_000_000,
                memoize: false,
            },
        )
    }

    #[test]
    fn correct_single_worker_is_clean() {
        let r = run(Bug::None, 1, 2, 2);
        assert!(!r.truncated);
        assert!(r.schedules > 0);
        assert!(r.is_clean(), "unexpected findings: {r:?}");
    }

    #[test]
    fn seal_before_stage_done_is_detected() {
        let r = run(Bug::SealBeforeStageDone, 2, 1, 1);
        assert!(r
            .order_violations
            .iter()
            .any(|(v, _)| matches!(v, OrderViolation::StageAfterSeal { .. })));
    }

    #[test]
    fn shared_apply_cursor_races() {
        let r = run(Bug::SharedApplyCursor, 2, 1, 1);
        assert!(r.races.iter().any(|race| race.location == "apply_cursor"));
    }

    #[test]
    fn skipped_quiesce_races_on_bitmap() {
        let r = run(Bug::SkipQuiesceHandshake, 1, 1, 1);
        assert!(r
            .races
            .iter()
            .any(|race| race.location.starts_with("bitmap")));
    }

    /// Without the apply join the coordinator stages sequence N+1
    /// while sequence N's record is still live, and seals it before
    /// N retires.
    #[test]
    fn overlapped_sequences_are_caught() {
        let r = run(Bug::OverlappedSequences, 2, 2, 1);
        for expected in ["stage", "seal"] {
            assert!(
                r.order_violations.iter().any(|(v, _)| match v {
                    OrderViolation::StageBeforePriorRetire { .. } => expected == "stage",
                    OrderViolation::SealBeforePriorRetire { .. } => expected == "seal",
                    _ => false,
                }),
                "expected a {expected}-before-prior-retire violation: {r:?}"
            );
        }
    }

    /// The commit program never memoizes (its order checker is
    /// history-based, so it opts out via a `None` fingerprint):
    /// memoized runs are bit-identical to unmemoized ones.
    #[test]
    fn commit_program_opts_out_of_memoization() {
        let program = commit_program(&CommitConfig {
            workers: 2,
            stacks: 2,
            sequences: 1,
            bug: Bug::None,
        });
        let plain = explore(
            &program,
            &ExplorerConfig {
                preemption_bound: 1,
                max_schedules: 2_000_000,
                memoize: false,
            },
        );
        let memo = explore(
            &program,
            &ExplorerConfig {
                preemption_bound: 1,
                max_schedules: 2_000_000,
                memoize: true,
            },
        );
        assert_eq!(plain.schedules, memo.schedules);
        assert_eq!(memo.memo_hits, 0);
    }
}
