//! `sim_fig8`: the Figure 8 matrix — three applications, each under no
//! persistence and six stack-persistence mechanisms — replayed through
//! `CheckpointManager::run` on Setup-I at the 10 ms interval.
//!
//! The workload never touches the host commit engine, so commit-engine
//! changes must leave it unchanged. Its host time is trace generation,
//! the memory simulator and the mechanisms' store and interval hooks,
//! which the traced run separates by timing each call from outside.

use std::cell::Cell;
use std::time::Instant;

use prosper_baselines::{DirtybitMechanism, RomulusMechanism, SspMechanism};
use prosper_core::ProsperMechanism;
use prosper_gemos::checkpoint::{
    CheckpointManager, CheckpointOutcome, IntervalInfo, MemoryPersistence, NoPersistence,
};
use prosper_memsim::addr::VirtRange;
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_memsim::stats::MemStats;
use prosper_memsim::Cycles;
use prosper_trace::record::{MemAccess, TraceEvent};
use prosper_trace::source::TraceSource;
use prosper_trace::stack::StackModel;
use prosper_trace::workloads::{Workload, WorkloadProfile};

use crate::calib::{calibrated, Calibrator, PASS_NS};
use crate::report::{geomean, median, percentile, ratio, Report};
use crate::spans::Tracer;
use crate::{mix, Budget, Layered};

/// Budget cycles of one 10 ms consistency interval (the paper's 30 M
/// cycles at 3 GHz, scaled down as in the figure harness).
pub(crate) const INTERVAL_10MS: Cycles = 120_000;

/// Intervals per matrix row, as in the Figure 8 harness.
pub(crate) const INTERVALS: u64 = 12;

/// Simulated µs per cycle at the harness's scale (120 000 cycles stand
/// for 10 ms).
const US_PER_CYCLE: f64 = 10_000.0 / INTERVAL_10MS as f64;

/// Sweeps a run measures at least, after its warm-up sweep.
const MIN_SWEEPS: usize = 4;

/// One mechanism column of the Figure 8 matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mech {
    /// The volatile normalisation baseline.
    None,
    /// Romulus.
    Romulus,
    /// SSP consolidating every 10 µs.
    Ssp10us,
    /// SSP consolidating every 100 µs.
    Ssp100us,
    /// SSP consolidating every 1 ms.
    Ssp1ms,
    /// Dirty-bit page tracking.
    Dirtybit,
    /// Prosper.
    Prosper,
}

/// The columns in the order the matrix runs them.
pub(crate) const MECHS: [Mech; 7] = [
    Mech::None,
    Mech::Romulus,
    Mech::Ssp10us,
    Mech::Ssp100us,
    Mech::Ssp1ms,
    Mech::Dirtybit,
    Mech::Prosper,
];

impl Mech {
    /// Name as printed in Figure 8.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Mech::None => "None",
            Mech::Romulus => "Romulus",
            Mech::Ssp10us => "SSP-10us",
            Mech::Ssp100us => "SSP-100us",
            Mech::Ssp1ms => "SSP-1ms",
            Mech::Dirtybit => "Dirtybit",
            Mech::Prosper => "Prosper",
        }
    }

    /// Suffix of the mechanism's `baselines.<key>_overhead_pct` metric.
    fn key(self) -> &'static str {
        match self {
            Mech::None => "none",
            Mech::Romulus => "romulus",
            Mech::Ssp10us => "ssp_10us",
            Mech::Ssp100us => "ssp_100us",
            Mech::Ssp1ms => "ssp_1ms",
            Mech::Dirtybit => "dirtybit",
            Mech::Prosper => "prosper",
        }
    }

    /// Layers of the mechanism's store hook and interval hooks. The
    /// volatile baseline's hooks do nothing; their time stays with the
    /// replay loop.
    fn layers(self) -> (&'static str, &'static str) {
        match self {
            Mech::None => ("memsim", "memsim"),
            Mech::Prosper => ("tracker", "oscomp"),
            _ => ("baselines", "baselines"),
        }
    }

    fn build(self) -> Built {
        // SSP consolidation intervals keep the paper's 1000x/100x/10x
        // ratios to the 10 ms consistency interval.
        match self {
            Mech::None => Built::None(NoPersistence),
            Mech::Romulus => Built::Romulus(RomulusMechanism::new()),
            Mech::Ssp10us => Built::Ssp(SspMechanism::new(INTERVAL_10MS / 1000)),
            Mech::Ssp100us => Built::Ssp(SspMechanism::new(INTERVAL_10MS / 100)),
            Mech::Ssp1ms => Built::Ssp(SspMechanism::new(INTERVAL_10MS / 10)),
            Mech::Dirtybit => Built::Dirtybit(DirtybitMechanism::new()),
            Mech::Prosper => Built::Prosper(ProsperMechanism::with_defaults()),
        }
    }
}

// One value per matrix row, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
enum Built {
    None(NoPersistence),
    Romulus(RomulusMechanism),
    Ssp(SspMechanism),
    Dirtybit(DirtybitMechanism),
    Prosper(ProsperMechanism),
}

impl Built {
    fn as_dyn(&mut self) -> &mut dyn MemoryPersistence {
        match self {
            Built::None(m) => m,
            Built::Romulus(m) => m,
            Built::Ssp(m) => m,
            Built::Dirtybit(m) => m,
            Built::Prosper(m) => m,
        }
    }
}

/// Prosper's own counters for one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ProsperCounts {
    /// Bitmap word loads plus stores the lookup table issued.
    pub bitmap_ops: u64,
    /// Bitmap words read by interval inspections.
    pub words_read: u64,
    /// Copy runs produced by inspections.
    pub runs: u64,
    /// Bytes checkpointed.
    pub bytes: u64,
}

/// Simulated outcome of one matrix row: what must repeat exactly for
/// one seed.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RowStats {
    /// Application profile name.
    pub app: &'static str,
    /// Mechanism column.
    pub mech: Mech,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Simulated cycles inside checkpoints.
    pub checkpoint_cycles: u64,
    /// Bytes the checkpoints copied.
    pub bytes_copied: u64,
    /// Completed intervals.
    pub intervals: u64,
    /// Stack stores simulated.
    pub stack_stores: u64,
    /// Simulated cycles of each checkpoint: `end_interval` entry to
    /// the following `begin_interval` exit.
    pub ckpt_cycles: Vec<u64>,
    /// Machine statistics at the end of the row.
    pub mem: MemStats,
    /// Trace events simulated.
    pub events: u64,
    /// Memory accesses among them.
    pub accesses: u64,
    /// Prosper's counters (Prosper rows only).
    pub prosper: Option<ProsperCounts>,
}

/// Host time of one matrix row.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowTiming {
    /// Building the machine, mechanism and workload.
    pub build_ns: u64,
    /// `CheckpointManager::run`.
    pub run_ns: u64,
    /// Traced only: interval collection over the trace source.
    pub trace_ns: u64,
    /// Traced only: the mechanism's store hook.
    pub on_store_ns: u64,
    /// Traced only: store-hook calls.
    pub on_store_calls: u64,
    /// Traced only: `end_interval` calls.
    pub end_ns: u64,
    /// Traced only: `begin_interval` calls.
    pub begin_ns: u64,
    /// The calibration pass run after the row.
    pub pass_ns: f64,
}

/// One row: its simulated outcome and its host time.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    /// Simulated outcome.
    pub stats: RowStats,
    /// Host time.
    pub timing: RowTiming,
}

/// Counts trace events and, when traced, times interval collection.
///
/// Collection runs in bursts: `IntervalCollector` pulls one interval's
/// events back to back, after the mechanism's `begin_interval`. Each
/// event is charged the time since the previous event returned, or
/// since `begin_interval` returned for the first event of a burst, so
/// one clock read per event covers generation and collection.
struct SourceProbe<'a, S> {
    inner: S,
    mark: &'a Cell<Instant>,
    traced: bool,
    events: u64,
    accesses: u64,
    trace_ns: u64,
}

impl<S: TraceSource> TraceSource for SourceProbe<'_, S> {
    fn next_event(&mut self) -> TraceEvent {
        let ev = self.inner.next_event();
        self.events += 1;
        if matches!(ev, TraceEvent::Access(_)) {
            self.accesses += 1;
        }
        if self.traced {
            let now = Instant::now();
            self.trace_ns += ns(now, self.mark.get());
            self.mark.set(now);
        }
        ev
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stack(&self) -> &StackModel {
        self.inner.stack()
    }
}

/// Measures a mechanism's hooks from outside: always each checkpoint's
/// simulated cycles, and when traced the host time of every store hook
/// and interval hook as well.
struct MechProbe<'a> {
    inner: &'a mut dyn MemoryPersistence,
    mark: &'a Cell<Instant>,
    traced: bool,
    ckpt_start: Option<Cycles>,
    ckpt_cycles: Vec<u64>,
    timing: RowTiming,
    end_spans: Vec<(Instant, Instant)>,
}

impl MemoryPersistence for MechProbe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange) {
        let t0 = Instant::now();
        self.inner.begin_interval(machine, region);
        let t1 = Instant::now();
        if let Some(s) = self.ckpt_start.take() {
            self.ckpt_cycles.push(machine.now() - s);
        }
        if self.traced {
            self.timing.begin_ns += ns(t1, t0);
            self.mark.set(t1);
        }
    }

    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
        if self.traced {
            let t0 = Instant::now();
            self.inner.on_store(machine, access);
            self.timing.on_store_ns += ns(Instant::now(), t0);
            self.timing.on_store_calls += 1;
        } else {
            self.inner.on_store(machine, access);
        }
    }

    fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
        let t0 = Instant::now();
        self.ckpt_start = Some(machine.now());
        let out = self.inner.end_interval(machine, info);
        if self.traced {
            let t1 = Instant::now();
            self.timing.end_ns += ns(t1, t0);
            self.end_spans.push((t0, t1));
        }
        out
    }

    fn region_in_dram(&self) -> bool {
        self.inner.region_in_dram()
    }
}

fn ns(later: Instant, earlier: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos() as u64
}

/// The workload's inputs: the three application profiles, each with
/// its own trace seed drawn from the run's seed.
#[derive(Clone, Debug)]
pub(crate) struct SimInputs {
    /// `(profile, trace seed)` per application.
    pub apps: Vec<(WorkloadProfile, u64)>,
    /// Intervals per row.
    pub intervals: u64,
}

impl SimInputs {
    /// The Figure 8 inputs for `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self::with_intervals(seed, INTERVALS)
    }

    /// The inputs with a different row length (tests use short rows).
    pub(crate) fn with_intervals(seed: u64, intervals: u64) -> Self {
        let apps = WorkloadProfile::applications()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, mix(seed, i as u64)))
            .collect();
        Self { apps, intervals }
    }
}

/// Runs one matrix row; `tracer` records its spans when traced.
pub(crate) fn run_row(
    profile: &WorkloadProfile,
    trace_seed: u64,
    mech: Mech,
    intervals: u64,
    tracer: Option<(&mut Tracer, u64)>,
) -> Row {
    let traced = tracer.is_some();
    let b0 = Instant::now();
    let mut machine = Machine::new(MachineConfig::setup_i());
    let workload = Workload::new(profile.clone(), trace_seed);
    let mut built = mech.build();
    let build_ns = ns(Instant::now(), b0);

    let mark = Cell::new(Instant::now());
    let mut source = SourceProbe {
        inner: workload,
        mark: &mark,
        traced,
        events: 0,
        accesses: 0,
        trace_ns: 0,
    };
    let mut probe = MechProbe {
        inner: built.as_dyn(),
        mark: &mark,
        traced,
        ckpt_start: None,
        ckpt_cycles: Vec::new(),
        timing: RowTiming::default(),
        end_spans: Vec::new(),
    };
    let t0 = Instant::now();
    let res = CheckpointManager::new(&mut machine, INTERVAL_10MS).run_stack_only(
        &mut source,
        &mut probe,
        intervals,
    );
    let t1 = Instant::now();

    let mut timing = std::mem::take(&mut probe.timing);
    let end_spans = std::mem::take(&mut probe.end_spans);
    let ckpt_cycles = std::mem::take(&mut probe.ckpt_cycles);
    drop(probe);
    timing.build_ns = build_ns;
    timing.run_ns = ns(t1, t0);
    timing.trace_ns = source.trace_ns;

    if let Some((tracer, ckpt_base)) = tracer {
        let (store_layer, interval_layer) = mech.layers();
        let run = tracer.span("CheckpointManager::run", "memsim", None, ckpt_base, t0, t1);
        tracer.aggregate(
            "TraceSource::next_event",
            "trace",
            run,
            ckpt_base,
            t0,
            timing.trace_ns,
            source.events,
        );
        tracer.aggregate(
            "MemoryPersistence::on_store",
            store_layer,
            run,
            ckpt_base,
            t0,
            timing.on_store_ns,
            timing.on_store_calls,
        );
        tracer.aggregate(
            "MemoryPersistence::begin_interval",
            interval_layer,
            run,
            ckpt_base,
            t0,
            timing.begin_ns,
            intervals + 1,
        );
        for (i, (s, e)) in end_spans.into_iter().enumerate() {
            tracer.span(
                "MemoryPersistence::end_interval",
                interval_layer,
                Some(run),
                ckpt_base + i as u64,
                s,
                e,
            );
        }
    }

    let prosper = match &built {
        Built::Prosper(p) => {
            let l = p.tracker().lookup_stats();
            Some(ProsperCounts {
                bitmap_ops: l.bitmap_loads + l.bitmap_stores,
                words_read: p.totals.words_read,
                runs: p.totals.runs,
                bytes: p.totals.bytes,
            })
        }
        _ => None,
    };
    Row {
        stats: RowStats {
            app: profile.name,
            mech,
            total_cycles: res.total_cycles,
            checkpoint_cycles: res.checkpoint_cycles,
            bytes_copied: res.bytes_copied,
            intervals: res.intervals,
            stack_stores: res.stack_stores,
            ckpt_cycles,
            mem: machine.stats(),
            events: source.events,
            accesses: source.accesses,
            prosper,
        },
        timing,
    }
}

/// Runs the whole matrix once, application by application, with one
/// calibration pass after every row.
pub(crate) fn sweep(
    inputs: &SimInputs,
    mut tracer: Option<&mut Tracer>,
    cal: &mut Calibrator,
) -> Vec<Row> {
    let mut rows = Vec::with_capacity(inputs.apps.len() * MECHS.len());
    for (profile, trace_seed) in &inputs.apps {
        for mech in MECHS {
            // Simulated intervals are numbered across the traced run.
            let t = tracer.as_deref_mut().map(|t| {
                let rows_traced = t.spans().iter().filter(|s| s.parent.is_none()).count();
                (t, rows_traced as u64 * inputs.intervals)
            });
            let mut row = run_row(profile, *trace_seed, mech, inputs.intervals, t);
            row.timing.pass_ns = cal.passes(1)[0];
            rows.push(row);
        }
    }
    rows
}

/// The `fig8.prosper-wins` ordering on one application's rows: Prosper
/// beats Romulus, SSP-10us and SSP-1ms, and SSP's overhead falls with
/// a longer consolidation interval.
pub(crate) fn check_fig8_ordering(rows: &[&RowStats]) -> Result<(), String> {
    let get = |m: Mech| {
        rows.iter()
            .find(|r| r.mech == m)
            .map(|r| r.total_cycles as f64)
            .ok_or_else(|| format!("{} row missing", m.label()))
    };
    let (prosper, romulus) = (get(Mech::Prosper)?, get(Mech::Romulus)?);
    let (ssp10, ssp1ms) = (get(Mech::Ssp10us)?, get(Mech::Ssp1ms)?);
    if prosper < romulus && prosper < ssp10 && prosper < ssp1ms && ssp10 >= ssp1ms {
        Ok(())
    } else {
        Err(format!(
            "fig8.prosper-wins violated on {}: Prosper {prosper}, Romulus {romulus}, \
             SSP-10us {ssp10}, SSP-1ms {ssp1ms} cycles",
            rows.first().map_or("?", |r| r.app)
        ))
    }
}

/// Every row of `rows` equals the row of `reference` at the same
/// position: the simulation repeats exactly for one seed.
pub(crate) fn check_repeat(reference: &[Row], rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    if reference.len() != rows.len() {
        failures.push(format!(
            "matrix has {} rows, reference {}",
            rows.len(),
            reference.len()
        ));
    }
    for (a, b) in reference.iter().zip(rows) {
        if a.stats != b.stats {
            failures.push(format!(
                "{} under {}: simulated stats differ from the first run of this seed",
                b.stats.app,
                b.stats.mech.label()
            ));
        }
    }
    failures
}

/// Overhead over no persistence in percent, as the geomean over the
/// applications of each one's cycle ratio.
fn overhead_pct(rows: &[Row], mech: Mech) -> f64 {
    let mut ratios = Vec::new();
    for app in rows
        .iter()
        .filter(|r| r.stats.mech == Mech::None)
        .map(|r| r.stats.app)
    {
        let of = |m: Mech| {
            rows.iter()
                .find(|r| r.stats.app == app && r.stats.mech == m)
                .map_or(0.0, |r| r.stats.total_cycles as f64)
        };
        ratios.push(ratio(of(mech), of(Mech::None)));
    }
    (geomean(&ratios) - 1.0) * 100.0
}

/// Checks one sweep: the Figure 8 ordering per application and, after
/// the first sweep, the rows against the first sweep's.
fn check_sweep(report: &mut Report, inputs: &SimInputs, reference: Option<&[Row]>, rows: &[Row]) {
    for (profile, _) in &inputs.apps {
        let app_rows: Vec<&RowStats> = rows
            .iter()
            .map(|r| &r.stats)
            .filter(|r| r.app == profile.name)
            .collect();
        let res = check_fig8_ordering(&app_rows);
        report.checks.check(res.is_ok(), || res.unwrap_err());
    }
    if let Some(reference) = reference {
        report
            .checks
            .check_all(rows.len() as u64, check_repeat(reference, rows));
    }
}

/// Runs `sim_fig8` for `budget` and reports its metrics.
pub(crate) fn run(seed: u64, budget: &Budget, traced: bool) -> (Report, Tracer) {
    let mut report = Report::default();
    let inputs = SimInputs::new(seed);
    let start = Instant::now();
    let mut cal = Calibrator::new();
    let reference = sweep(&inputs, None, &mut cal);
    let mut untraced = vec![reference.clone()];
    let mut traced_sweeps: Vec<Vec<Row>> = Vec::new();
    let mut tracer = Tracer::new();
    check_sweep(&mut report, &inputs, None, &reference);
    // A traced run alternates traced and untraced sweeps so the tracing
    // overhead is measured under the same conditions.
    loop {
        let enough = if traced {
            !traced_sweeps.is_empty() && untraced.len() >= 2
        } else {
            untraced.len() > MIN_SWEEPS
        };
        if enough && budget.spent(start) {
            break;
        }
        let trace_this = traced && traced_sweeps.len() < untraced.len();
        let rows = sweep(&inputs, trace_this.then_some(&mut tracer), &mut cal);
        check_sweep(&mut report, &inputs, Some(&reference), &rows);
        if trace_this {
            traced_sweeps.push(rows);
        } else {
            untraced.push(rows);
        }
    }

    let events = |r: &RowStats| r.events;
    let stores = |r: &RowStats| r.stack_stores;
    report.note(format!(
        "sim_fig8: {} untraced and {} traced sweeps of {} rows x {} intervals",
        untraced.len(),
        traced_sweeps.len(),
        reference.len(),
        inputs.intervals
    ));
    if !traced {
        // The first sweep is warm-up. Every later row restarts from its
        // seed and is verified against the first sweep's stats.
        let measured = &untraced[1..];
        // Prosper's simulated checkpoint stalls; they repeat exactly for
        // a seed, so the first sweep holds all of them.
        let ckpt_us: Vec<f64> = reference
            .iter()
            .filter(|r| r.stats.mech == Mech::Prosper)
            .flat_map(|r| r.stats.ckpt_cycles.iter().map(|&c| c as f64 * US_PER_CYCLE))
            .collect();
        let restart_us: Vec<f64> = measured
            .iter()
            .flat_map(|rows| {
                let pass = sweep_pass_ns(rows);
                rows.iter().map(move |r| {
                    calibrated((r.timing.build_ns + r.timing.run_ns) as f64, pass, PASS_NS) / 1e3
                })
            })
            .collect();
        let setup_s: Vec<f64> = untraced
            .iter()
            .map(|rows| calibrated_sum(rows, |t| t.build_ns) / 1e9)
            .collect();
        let passes: Vec<f64> = untraced
            .iter()
            .flatten()
            .map(|r| r.timing.pass_ns)
            .collect();
        report.note(format!(
            "calibration passes: {}, median {} ns; simulated checkpoint samples = {}, \
             p99 = {} us ({} beyond it); restarts = {}; set-ups = {}",
            passes.len(),
            median(&passes),
            ckpt_us.len(),
            percentile(&ckpt_us, 0.99),
            crate::report::beyond(ckpt_us.len(), 0.99),
            restart_us.len(),
            setup_s.len()
        ));
        report.metric("setup_s", median(&setup_s), "s");
        report.metric(
            "sim_events_per_s",
            throughput(&untraced[1..], events),
            "1/s",
        );
        report.metric(
            "prosper_overhead_pct",
            overhead_pct(&reference, Mech::Prosper),
            "%",
        );
        report.metric("stores_per_s", throughput(&untraced[1..], stores), "1/s");
        report.metric("ckpt_p50_us", percentile(&ckpt_us, 0.5), "us");
        report.metric("recover_p50_us", median(&restart_us), "us");
        report.metric("peak_rss_mib", crate::host::peak_rss_mib(), "MiB");
        return (report, tracer);
    }

    let mut layered = Layered::default();
    let rows: Vec<&Row> = traced_sweeps.iter().flatten().collect();
    let n_sweeps = traced_sweeps.len() as f64;
    let sum = |f: &dyn Fn(&Row) -> u64, only: &dyn Fn(Mech) -> bool| -> f64 {
        rows.iter()
            .filter(|r| only(r.stats.mech))
            .map(|r| f(r) as f64)
            .sum()
    };
    let all = |_: Mech| true;
    let prosper = |m: Mech| m == Mech::Prosper;
    let baseline = |m: Mech| !matches!(m, Mech::None | Mech::Prosper);

    let events_n = sum(&|r| r.stats.events, &all);
    let trace_ns = sum(&|r| r.timing.trace_ns, &all);
    layered.set("trace.ns_per_event", ratio(trace_ns, events_n));
    layered.set("trace.events", events_n / n_sweeps);
    let hook_ns = sum(
        &|r| r.timing.on_store_ns + r.timing.end_ns + r.timing.begin_ns,
        &all,
    );
    let run_ns = sum(&|r| r.timing.run_ns, &all);
    layered.set(
        "memsim.self_ns_per_access",
        ratio(
            run_ns - trace_ns - hook_ns,
            sum(&|r| r.stats.accesses, &all),
        ),
    );
    layered.set(
        "memsim.l1d_misses",
        sum(&|r| r.stats.mem.l1d.misses, &all) / n_sweeps,
    );
    layered.set(
        "memsim.l3_misses",
        sum(&|r| r.stats.mem.l3.misses, &all) / n_sweeps,
    );
    layered.set(
        "memsim.nvm_writes",
        sum(&|r| r.stats.mem.nvm_writes, &all) / n_sweeps,
    );
    layered.set(
        "memsim.injected_stores",
        sum(&|r| r.stats.mem.injected_stores, &all) / n_sweeps,
    );
    let p_stores = sum(&|r| r.timing.on_store_calls, &prosper);
    let p_intervals = sum(&|r| r.stats.intervals, &prosper);
    let pc = |f: fn(&ProsperCounts) -> u64| {
        sum(&|r: &Row| r.stats.prosper.as_ref().map_or(0, f), &prosper)
    };
    layered.set(
        "tracker.ns_per_store",
        ratio(sum(&|r| r.timing.on_store_ns, &prosper), p_stores),
    );
    layered.set(
        "tracker.bitmap_ops_per_store",
        ratio(
            pc(|p| p.bitmap_ops),
            sum(&|r| r.stats.stack_stores, &prosper),
        ),
    );
    layered.set(
        "bitmap.words_read",
        ratio(pc(|p| p.words_read), p_intervals),
    );
    layered.set("bitmap.runs_per_ckpt", ratio(pc(|p| p.runs), p_intervals));
    layered.set(
        "bitmap.dirty_bytes_per_ckpt",
        ratio(pc(|p| p.bytes), p_intervals),
    );
    layered.set(
        "oscomp.end_interval_ns",
        ratio(sum(&|r| r.timing.end_ns, &prosper), p_intervals),
    );
    layered.set(
        "oscomp.ckpt_cycles",
        ratio(sum(&|r| r.stats.checkpoint_cycles, &prosper), p_intervals),
    );
    layered.set(
        "baselines.on_store_ns",
        ratio(
            sum(&|r| r.timing.on_store_ns, &baseline),
            sum(&|r| r.timing.on_store_calls, &baseline),
        ),
    );
    layered.set(
        "baselines.end_interval_ns",
        ratio(
            sum(&|r| r.timing.end_ns, &baseline),
            sum(&|r| r.stats.intervals, &baseline),
        ),
    );
    for mech in [
        Mech::Romulus,
        Mech::Ssp10us,
        Mech::Ssp100us,
        Mech::Ssp1ms,
        Mech::Dirtybit,
    ] {
        layered.set(
            &format!("baselines.{}_overhead_pct", mech.key()),
            overhead_pct(&reference, mech),
        );
    }
    let untraced_tail = &untraced[1..];
    layered.tracing_overhead(
        (
            throughput(untraced_tail, events),
            throughput(&traced_sweeps, events),
        ),
        (
            throughput(untraced_tail, stores),
            throughput(&traced_sweeps, stores),
        ),
    );
    layered.finish(&mut report, &tracer);
    (report, tracer)
}

/// Work per calibrated host second: a sweep's work over the median of
/// the sweeps' calibrated run times.
fn throughput(sweeps: &[Vec<Row>], work: fn(&RowStats) -> u64) -> f64 {
    let Some(first) = sweeps.first() else {
        return 0.0;
    };
    let done: u64 = first.iter().map(|r| work(&r.stats)).sum();
    let run_ns: Vec<f64> = sweeps
        .iter()
        .map(|rows| calibrated_sum(rows, |t| t.run_ns))
        .collect();
    ratio(done as f64 * 1e9, median(&run_ns))
}

/// Median host time of the calibration passes of a sweep.
fn sweep_pass_ns(rows: &[Row]) -> f64 {
    median(&rows.iter().map(|r| r.timing.pass_ns).collect::<Vec<_>>())
}

/// Host time `f` summed over a sweep's rows, calibrated by the sweep's
/// passes.
fn calibrated_sum(rows: &[Row], f: fn(&RowTiming) -> u64) -> f64 {
    let ns: u64 = rows.iter().map(|r| f(&r.timing)).sum();
    calibrated(ns as f64, sweep_pass_ns(rows), PASS_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_repeats_simulated_counts() {
        let inputs = SimInputs::with_intervals(11, 2);
        let (profile, seed) = &inputs.apps[0];
        let a = run_row(profile, *seed, Mech::Prosper, 2, None);
        let b = run_row(profile, *seed, Mech::Prosper, 2, None);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.events > 0 && a.stats.prosper.is_some());
        assert!(check_repeat(std::slice::from_ref(&a), &[b]).is_empty());

        let other = SimInputs::with_intervals(12, 2);
        assert_ne!(inputs.apps[0].1, other.apps[0].1);
        let c = run_row(&other.apps[0].0, other.apps[0].1, Mech::Prosper, 2, None);
        assert_ne!(a.stats, c.stats, "a different seed changes the trace");
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let inputs = SimInputs::with_intervals(11, 2);
        let (profile, seed) = &inputs.apps[1];
        let plain = run_row(profile, *seed, Mech::Prosper, 2, None);
        let mut tracer = Tracer::new();
        let traced = run_row(profile, *seed, Mech::Prosper, 2, Some((&mut tracer, 0)));
        assert_eq!(plain.stats, traced.stats);
        assert!(traced.timing.trace_ns > 0 && traced.timing.on_store_calls > 0);
        let by_layer = tracer.self_ns_by_layer();
        for layer in ["trace", "memsim", "tracker", "oscomp"] {
            assert!(by_layer.get(layer).copied().unwrap_or(0) > 0, "{layer}");
        }
        let end_intervals = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "MemoryPersistence::end_interval")
            .count();
        assert_eq!(end_intervals, 2);
    }

    #[test]
    fn checks_fail_on_corrupted_rows() {
        let inputs = SimInputs::with_intervals(11, 1);
        let (profile, seed) = &inputs.apps[0];
        let row = run_row(profile, *seed, Mech::Prosper, 1, None);
        let mut changed = row.clone();
        changed.stats.mem.l1d.misses += 1;
        assert_eq!(
            check_repeat(std::slice::from_ref(&row), &[changed]).len(),
            1
        );
        assert_eq!(check_repeat(std::slice::from_ref(&row), &[]).len(), 1);

        let with = |cycles: [u64; 4]| -> Vec<RowStats> {
            [Mech::Romulus, Mech::Ssp10us, Mech::Ssp1ms, Mech::Prosper]
                .into_iter()
                .zip(cycles)
                .map(|(mech, total_cycles)| RowStats {
                    mech,
                    total_cycles,
                    ..row.stats.clone()
                })
                .collect()
        };
        let ordering = |rows: &[RowStats]| check_fig8_ordering(&rows.iter().collect::<Vec<_>>());
        assert!(ordering(&with([170, 220, 110, 101])).is_ok());
        assert!(
            ordering(&with([170, 220, 110, 180])).is_err(),
            "Prosper loses to Romulus"
        );
        assert!(
            ordering(&with([170, 100, 110, 90])).is_err(),
            "SSP-10us beats SSP-1ms"
        );
        assert!(
            ordering(&with([170, 220, 110, 101])[1..]).is_err(),
            "Romulus row missing"
        );
    }
}
