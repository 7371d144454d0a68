//! Crash-matrix harness: drives the exhaustive crash-point sweep of
//! [`prosper_core::faultinject`] over a set of workload shapes and
//! aggregates the results for reporting.
//!
//! This is the artifact-style counterpart of the paper's "kill gem5
//! mid-run and check the application resumes" validation: instead of a
//! handful of manual kills, every step boundary of the checkpoint
//! pipeline is enumerated and crashed exactly once, per workload
//! shape. Results are mirrored into telemetry counters
//! (`prosper.crashmatrix.*`) when a context is installed.

use std::collections::BTreeMap;

use prosper_core::faultinject::{
    enumerate_crash_sites, run_crash_attributed, run_crash_matrix, CrashMatrixConfig,
    CrashMatrixReport,
};
use prosper_core::SpineConfig;
use prosper_gemos::crash::CrashSite;
use prosper_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// One suite entry: a labelled workload shape and its sweep result.
#[derive(Debug)]
pub struct MatrixRow {
    /// Human-readable shape label (e.g. `2t x 3iv`).
    pub label: String,
    /// The workload shape that was swept.
    pub cfg: CrashMatrixConfig,
    /// The sweep result.
    pub report: CrashMatrixReport,
}

/// Coverage of one crash-site kind within a sweep.
#[derive(Debug)]
pub struct KindCoverage {
    /// The site kind (the variant name, without per-site parameters).
    pub kind: &'static str,
    /// Crash points of this kind that were exercised.
    pub exercised: u64,
    /// Of those, how many failed verification.
    pub failed: u64,
}

/// The crash-site kind: variant name without the per-site parameters,
/// for coverage reporting.
pub fn site_kind(site: &CrashSite) -> &'static str {
    match site {
        CrashSite::PreStage => "pre-stage",
        CrashSite::MidStage { .. } => "mid-stage",
        CrashSite::PreSeal => "pre-seal",
        CrashSite::PostSeal => "post-seal",
        CrashSite::MidApply { .. } => "mid-apply",
        CrashSite::PostApplyThread { .. } => "post-apply-thread",
        CrashSite::PostApplyPreRegisters => "post-apply-pre-registers",
        CrashSite::MidRegisterApply { .. } => "mid-register-apply",
        CrashSite::PostCommit => "post-commit",
        CrashSite::MidBitmapClear { .. } => "mid-bitmap-clear",
        CrashSite::MidSwitchSave => "mid-switch-save",
        CrashSite::MidSwitchRestore => "mid-switch-restore",
        CrashSite::BatchSeal { .. } => "batch-seal",
        CrashSite::MidMerge { .. } => "mid-merge",
        CrashSite::MergeRetire { .. } => "merge-retire",
        CrashSite::AllocSubtreePersist { .. } => "alloc-subtree-persist",
        CrashSite::AllocReservationSteal { .. } => "alloc-reservation-steal",
    }
}

/// Per-kind coverage of one sweep, in taxonomy order.
pub fn kind_coverage(report: &CrashMatrixReport) -> Vec<KindCoverage> {
    let order = [
        "pre-stage",
        "mid-stage",
        "pre-seal",
        "post-seal",
        "mid-apply",
        "post-apply-thread",
        "post-apply-pre-registers",
        "mid-register-apply",
        "post-commit",
        "mid-bitmap-clear",
        "mid-switch-save",
        "mid-switch-restore",
        "batch-seal",
        "mid-merge",
        "merge-retire",
        "alloc-subtree-persist",
        "alloc-reservation-steal",
    ];
    order
        .iter()
        .map(|kind| KindCoverage {
            kind,
            exercised: report
                .sites
                .iter()
                .filter(|s| site_kind(s) == *kind)
                .count() as u64,
            failed: report
                .failures
                .iter()
                .filter(|f| site_kind(&f.site) == *kind)
                .count() as u64,
        })
        .collect()
}

/// The workload shapes the default sweep covers: single-thread,
/// multi-thread, and a longer multi-interval run.
pub fn default_suite() -> Vec<(&'static str, CrashMatrixConfig)> {
    vec![
        (
            "1 thread x 2 intervals",
            CrashMatrixConfig {
                threads: 1,
                intervals: 2,
                stores_per_interval: 8,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 12,
                ..Default::default()
            },
        ),
        (
            "3 threads x 2 intervals",
            CrashMatrixConfig {
                threads: 3,
                intervals: 2,
                stores_per_interval: 10,
                seed: 0xC0FF_EE00,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals, 2 workers",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 12,
                workers: 2,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals + spine merge-always",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 10,
                spine: Some(SpineConfig::merge_always()),
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals + spine merge-always, 2 workers",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 10,
                spine: Some(SpineConfig::merge_always()),
                workers: 2,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals + lazy spine",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 8,
                spine: Some(SpineConfig::lazy(64)),
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals + allocator epilogue",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 8,
                alloc_epilogue: true,
                ..Default::default()
            },
        ),
    ]
}

/// A reduced suite for quick smoke runs (CI micro workloads).
pub fn quick_suite() -> Vec<(&'static str, CrashMatrixConfig)> {
    vec![
        (
            "1 thread x 2 intervals",
            CrashMatrixConfig {
                threads: 1,
                intervals: 2,
                stores_per_interval: 5,
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 6,
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals + spine merge-always",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 5,
                spine: Some(SpineConfig::merge_always()),
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals, 2 workers",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 6,
                workers: 2,
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals + spine merge-always, 2 workers",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 5,
                spine: Some(SpineConfig::merge_always()),
                workers: 2,
                ..Default::default()
            },
        ),
        (
            "1 thread x 1 interval + allocator epilogue",
            CrashMatrixConfig {
                threads: 1,
                intervals: 1,
                stores_per_interval: 4,
                alloc_epilogue: true,
                ..Default::default()
            },
        ),
    ]
}

/// Runs every shape of `suite` through the exhaustive sweep,
/// reporting aggregate counters into telemetry (if a context is
/// installed): `prosper.crashmatrix.sites`, `.survived`, `.failures`.
pub fn run_suite(suite: &[(&'static str, CrashMatrixConfig)]) -> Vec<MatrixRow> {
    let rows: Vec<MatrixRow> = suite
        .iter()
        .map(|(label, cfg)| MatrixRow {
            label: (*label).to_string(),
            cfg: *cfg,
            report: run_crash_matrix(cfg),
        })
        .collect();
    telemetry::with(|t| {
        let reg = t.registry();
        for row in &rows {
            reg.counter("prosper.crashmatrix.sites")
                .add(row.report.total());
            reg.counter("prosper.crashmatrix.survived")
                .add(row.report.survived);
            reg.counter("prosper.crashmatrix.failures")
                .add(row.report.failures.len() as u64);
        }
    });
    rows
}

/// Schema tag of the crash-matrix attribution archive.
pub const MATRIX_ATTR_SCHEMA: &str = "prosper-crashmatrix-attribution/v1";

/// Attribution aggregate of one workload shape's full sweep: every
/// enumerated crash point re-run with a stall accountant attached.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixAttributionRow {
    /// The shape label.
    pub label: String,
    /// Crash points swept (and conservation-verified) for this shape.
    pub points: u64,
    /// Total stall ns per cause, summed across all points' ledgers.
    pub by_cause: BTreeMap<String, u64>,
    /// Total attributed stall ns across all points.
    pub stall_ns: u64,
    /// Total simulated wall ns across all points' runs.
    pub wall_ns: u64,
}

/// Attribution archive of a full matrix sweep, written by the
/// `crash_matrix` binary's `--telemetry-snapshot` flag.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixAttribution {
    /// Always [`MATRIX_ATTR_SCHEMA`].
    pub schema: String,
    /// One row per workload shape, in suite order.
    pub rows: Vec<MatrixAttributionRow>,
}

/// Re-runs every crash point of every single-worker shape with a
/// stall accountant attached, verifies the conservation invariant at
/// each point (torn commits and recovery replays included), and
/// aggregates the cause-tagged totals into an archive. Multi-worker
/// shapes are left out: how far the other workers got before a crash
/// stopped them varies from run to run, and so would the archive.
///
/// Deterministic: equal suites produce byte-identical archives.
///
/// # Errors
///
/// Returns the first recovery-invariant or conservation violation.
pub fn attributed_sweep(
    suite: &[(&'static str, CrashMatrixConfig)],
) -> Result<MatrixAttribution, String> {
    let mut rows = Vec::new();
    for (label, cfg) in suite.iter().filter(|(_, cfg)| cfg.workers <= 1) {
        let sites = enumerate_crash_sites(cfg);
        let mut row = MatrixAttributionRow {
            label: (*label).to_string(),
            ..Default::default()
        };
        for index in 0..sites.len() as u64 {
            let (_, run) = run_crash_attributed(cfg, index)
                .map_err(|e| format!("{label}: crash at {index}: {e}"))?;
            run.snapshot
                .verify_conservation()
                .map_err(|e| format!("{label}: crash at {index}: {e}"))?;
            for (_, totals) in run.snapshot.per_thread() {
                for (cause, ns) in &totals.by_cause {
                    *row.by_cause.entry(cause.clone()).or_insert(0) += ns;
                }
                row.stall_ns += totals.window_ns;
            }
            row.wall_ns += run.total_cycles;
            row.points += 1;
        }
        rows.push(row);
    }
    Ok(MatrixAttribution {
        schema: MATRIX_ATTR_SCHEMA.to_string(),
        rows,
    })
}

/// Result of the probed-allocator conformance sweep.
#[derive(Debug)]
pub struct AllocConformance {
    /// Workload shapes swept.
    pub shapes: usize,
    /// Probed allocator operations recorded across all shapes.
    pub ops: u64,
    /// Protocol atomics recorded across all shapes.
    pub events: u64,
    /// Durable persist epochs whose crash images were enumerated.
    pub epochs: u64,
}

/// Sweeps the *real* `FrameAlloc` under concurrent probed load and
/// validates every recorded linearization with the allocator model's
/// history checker, then enumerates every seal-consistent post-crash
/// image of each persist epoch — the crash matrix's counterpart of
/// `prosper-allocmodel`'s exhaustive model runs, executed against the
/// shipping allocator instead of its model.
///
/// # Errors
///
/// Returns the first checker violation, labelled with its shape.
pub fn alloc_conformance_sweep(quick: bool) -> Result<AllocConformance, String> {
    use prosper_analysis::allocmodel::{
        check_alloc_history, check_crash_images, probe_trace, AllocTraceEvent, DurableStore,
        HistoryContext,
    };
    use prosper_gemos::llalloc::{AllocProbe, DurableAllocTree, FrameAlloc, SUBTREE_FRAMES};
    use prosper_gemos::physmem::Pool;
    use prosper_memsim::{config::MemoryLayout, PAGE_SIZE};

    // (workers, NVM subtrees, allocs per worker) — enough contention
    // to exercise reservation steals and frees racing the persist
    // thread.
    let shapes: &[(u32, u64, usize)] = if quick {
        &[(2, 1, 24)]
    } else {
        &[(2, 1, 24), (3, 2, 48), (4, 2, 64)]
    };
    let mut out = AllocConformance {
        shapes: shapes.len(),
        ops: 0,
        events: 0,
        epochs: 0,
    };
    for &(workers, subtrees, allocs) in shapes {
        let label = format!("{workers}w x {subtrees}st x {allocs}a");
        let a = FrameAlloc::new(MemoryLayout {
            dram_bytes: 0,
            nvm_bytes: subtrees * SUBTREE_FRAMES * PAGE_SIZE,
        });
        let probe = AllocProbe::new();
        let mut durable = DurableAllocTree::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (a, probe) = (&a, &probe);
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..allocs {
                        if let Ok(pfn) = a.alloc_for_probed(Pool::Nvm, w, probe) {
                            held.push(pfn);
                        }
                        if i % 3 == 0 && !held.is_empty() {
                            let pfn = held.remove(0);
                            let _ = a.free_probed(pfn, probe);
                        }
                    }
                    for pfn in held {
                        let _ = a.free_probed(pfn, probe);
                    }
                });
            }
            scope.spawn(|| {
                let mut d = DurableAllocTree::new();
                a.persist_nvm_probed(&mut d, &probe);
                a.persist_nvm_probed(&mut d, &probe);
                durable = d;
            });
        });
        let trace = probe_trace(&probe);
        let ctx = HistoryContext {
            total_frames: subtrees * SUBTREE_FRAMES,
            base_pfn: a.nvm_base_pfn(),
            frames_per_subtree: SUBTREE_FRAMES,
            subtrees: a.nvm_subtrees(),
            words_per_seal: a.nvm_bitmap_words(),
            enforce_serial_policy: false,
        };
        if let Some(v) = check_alloc_history(&trace, &ctx).first() {
            return Err(format!("{label}: trace rejected: {v}"));
        }
        for epoch in 1..=durable.committed_sequence() {
            let log: Vec<DurableStore> = trace
                .iter()
                .filter_map(|e| match *e {
                    AllocTraceEvent::StageWord { seq, word, value } if seq == epoch => {
                        Some(DurableStore::Word {
                            idx: word as usize,
                            val: value,
                        })
                    }
                    AllocTraceEvent::Seal { seq } if seq == epoch => Some(DurableStore::Seal),
                    _ => None,
                })
                .collect();
            let base = vec![0u64; a.nvm_bitmap_words()];
            if let Some(t) = check_crash_images(&base, &log).first() {
                return Err(format!("{label}: epoch {epoch}: {t}"));
            }
            out.epochs += 1;
        }
        // Every completed op opens with exactly one of these events.
        out.ops += trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    AllocTraceEvent::Gate { .. }
                        | AllocTraceEvent::Oom { .. }
                        | AllocTraceEvent::FreeClear { .. }
                )
            })
            .count() as u64;
        out.events += trace.len() as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_telemetry::{NoopSink, Telemetry};

    #[test]
    fn alloc_conformance_sweep_passes_quick() {
        let r = alloc_conformance_sweep(true).expect("probed allocator trace conforms");
        assert_eq!(r.shapes, 1);
        assert!(r.ops > 0, "no probed operations recorded");
        assert!(r.events > r.ops, "protocol atomics outnumber operations");
        assert_eq!(r.epochs, 2, "both persist epochs crash-image checked");
    }

    #[test]
    fn attributed_sweep_conserves_and_is_deterministic() {
        let suite = [(
            "tiny",
            CrashMatrixConfig {
                threads: 1,
                intervals: 1,
                stores_per_interval: 4,
                ..Default::default()
            },
        )];
        let a = attributed_sweep(&suite).expect("sweep conserves");
        let b = attributed_sweep(&suite).expect("sweep conserves");
        assert_eq!(a, b);
        assert_eq!(a.schema, MATRIX_ATTR_SCHEMA);
        let row = &a.rows[0];
        assert!(row.points > 0);
        assert_eq!(row.stall_ns, row.by_cause.values().sum::<u64>());
        assert!(
            row.by_cause.contains_key("recovery"),
            "post-seal crash points attribute recovery: {:?}",
            row.by_cause
        );
        assert!(row.stall_ns <= row.wall_ns);
    }

    #[test]
    fn quick_suite_survives_everything() {
        telemetry::install(Telemetry::new(Box::new(NoopSink)));
        let rows = run_suite(&quick_suite());
        let t = telemetry::uninstall().expect("context was installed");
        let mut total = 0;
        for row in &rows {
            assert!(
                row.report.all_survived(),
                "{}: {:?}",
                row.label,
                row.report.failures.first()
            );
            total += row.report.total();
        }
        // The single-worker schedules keep their exact point counts;
        // two schedules sweep the parallel engine.
        let count = |workers: usize| -> Vec<u64> {
            rows.iter()
                .filter(|r| r.cfg.workers == workers)
                .map(|r| r.report.total())
                .collect()
        };
        assert_eq!(count(1), [43, 85, 63, 28]);
        assert_eq!(count(2).len(), 2);
        let snap = t.registry().snapshot();
        assert_eq!(snap.counters.get("prosper.crashmatrix.sites"), Some(&total));
        assert_eq!(
            snap.counters.get("prosper.crashmatrix.survived"),
            Some(&total)
        );
        assert_eq!(snap.counters.get("prosper.crashmatrix.failures"), Some(&0));
    }

    #[test]
    fn kind_coverage_spans_the_taxonomy() {
        // The spine schedule is the only one that crosses
        // batch-seal/mid-merge/merge-retire. Together the two shapes
        // cover the whole taxonomy.
        let eager_cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 2,
            stores_per_interval: 6,
            alloc_epilogue: true,
            ..Default::default()
        };
        let spine_cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 2,
            stores_per_interval: 6,
            spine: Some(SpineConfig::merge_always()),
            ..Default::default()
        };
        let eager_cov = kind_coverage(&run_crash_matrix(&eager_cfg));
        let spine_cov = kind_coverage(&run_crash_matrix(&spine_cfg));
        assert_eq!(eager_cov.len(), 17, "one row per site kind");
        assert_eq!(spine_cov.len(), 17, "one row per site kind");
        for (e, s) in eager_cov.iter().zip(&spine_cov) {
            assert!(
                e.exercised + s.exercised > 0,
                "kind {} never exercised by either schedule",
                e.kind
            );
            assert_eq!(e.failed + s.failed, 0, "kind {} has failures", e.kind);
        }
        let exercised = |cov: &[KindCoverage], kind: &str| {
            cov.iter().find(|k| k.kind == kind).unwrap().exercised
        };
        // Schedule exclusivity: the apply copy exists only on the
        // eager schedule, the spine sites only on the spine schedule.
        assert_eq!(exercised(&spine_cov, "mid-apply"), 0);
        assert_eq!(exercised(&eager_cov, "batch-seal"), 0);
        assert!(exercised(&spine_cov, "batch-seal") > 0);
        assert!(exercised(&spine_cov, "mid-merge") > 0);
        assert!(exercised(&spine_cov, "merge-retire") > 0);
        // The allocator sites exist only on the allocator epilogue.
        assert_eq!(exercised(&spine_cov, "alloc-subtree-persist"), 0);
        assert!(exercised(&eager_cov, "alloc-subtree-persist") > 0);
        assert!(exercised(&eager_cov, "alloc-reservation-steal") > 0);
    }
}
