//! Host-speed calibration: fixed reference passes, run between the
//! measured stretches of work, that every end-to-end host time is
//! divided by.
//!
//! The host the benchmark was tuned on shares its physical machine with
//! other tenants. Their load changes the speed of pointer-heavy code by
//! a fifth or more between runs minutes apart, in thread CPU time as much
//! as in wall time, so no clock leaves it out and no choice of quick
//! stretches within one run removes it. The simulator (page tables,
//! image chunks and wear maps in `BTreeMap`s) and the commit engine's
//! store and recovery paths slow down together with a pass of random
//! lookups in a `BTreeMap` of a few MiB of nodes, while compute-bound
//! and sequential-copy passes barely move. The pass is code of this
//! crate only and allocates nothing after set-up, so no change to the
//! program under test changes its cost. A host time divided by the
//! passes run beside it moves only when the program does.
//!
//! The checkpoint stall on the host is different: most of it is
//! `commit` copying about 1 MiB over scoped worker threads on every
//! core, and between runs it did not move with the lookup pass. It is
//! calibrated by a [`CopyPass`] of the same shape instead.
//!
//! Reported host times are *calibrated*: the time the work would take
//! on a host where one pass takes its nominal time ([`PASS_NS`],
//! [`COPY_PASS_NS`]). A run also prints the median passes it measured,
//! so raw host times can be recovered.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::ratio;

/// Nominal host time of one lookup pass: the unit of calibrated time,
/// about what a pass took on the host the benchmark was tuned on.
pub(crate) const PASS_NS: f64 = 1_400_000.0;

/// Nominal host time of one [`CopyPass`], chosen the same way.
pub(crate) const COPY_PASS_NS: f64 = 175_000.0;

/// Bytes a [`CopyPass`] copies.
const COPY_BYTES: usize = 1 << 20;

/// Keys the pass's tree holds: a few MiB of nodes, beyond a core's
/// private caches and its TLB reach.
const KEYS: u64 = 100_000;

/// Lookups per pass: each finds the first key at or after a random
/// one and updates its value in place.
const LOOKUPS: u64 = 7_000;

/// The reference pass and its data.
pub(crate) struct Calibrator {
    tree: BTreeMap<u64, u64>,
    /// Lookups made so far: the next lookup's random key is drawn from
    /// this count.
    looked_up: u64,
}

impl Calibrator {
    /// Builds the pass's tree.
    pub(crate) fn new() -> Self {
        Self {
            tree: (0..KEYS).map(|i| (crate::mix(i, 0xca11b), i)).collect(),
            looked_up: 0,
        }
    }

    /// Runs one pass and returns its host time in ns.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            self.looked_up += 1;
            let k = crate::mix(self.looked_up, 0x100c);
            if let Some((_, v)) = self.tree.range_mut(k..).next() {
                *v = v.wrapping_add(acc);
                acc = acc.wrapping_add(*v);
            }
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64
    }

    /// Runs `n` passes after an unmeasured one and returns their host
    /// times.
    pub(crate) fn passes(&mut self, n: usize) -> Vec<f64> {
        warm_then(n, || self.pass())
    }
}

/// A pass shaped like `commit`'s copy phase: scoped worker threads, one
/// per core up to the commit's cap, each copy an equal share of 1 MiB
/// and are joined.
pub(crate) struct CopyPass {
    src: Vec<u8>,
    dst: Vec<u8>,
    workers: usize,
}

impl CopyPass {
    /// Allocates and touches the pass's buffers.
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            src: (0..COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; COPY_BYTES],
            workers: workers.max(1),
        }
    }

    /// Runs one pass and returns its host time in ns.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let share = COPY_BYTES.div_ceil(self.workers);
        std::thread::scope(|scope| {
            for (d, s) in self.dst.chunks_mut(share).zip(self.src.chunks(share)) {
                scope.spawn(move || d.copy_from_slice(s));
            }
        });
        black_box(&mut self.dst);
        t0.elapsed().as_nanos() as f64
    }

    /// Runs `n` passes after an unmeasured one and returns their host
    /// times.
    pub(crate) fn passes(&mut self, n: usize) -> Vec<f64> {
        warm_then(n, || self.pass())
    }
}

/// Runs `pass` once unmeasured, then `n` times, and returns the host
/// times of the `n`. The first pass brings the pass's data back into
/// the caches the measured work evicted, so a program that uses more or
/// less cache does not change the passes' cost.
fn warm_then(n: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    pass();
    (0..n).map(|_| pass()).collect()
}

/// `raw_ns` of work measured beside passes of median host time
/// `pass_ns` and nominal host time `nominal_ns`, in calibrated ns.
pub(crate) fn calibrated(raw_ns: f64, pass_ns: f64, nominal_ns: f64) -> f64 {
    raw_ns * ratio(nominal_ns, pass_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_keep_the_keys_and_repeat() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        let keys: Vec<u64> = a.tree.keys().copied().collect();
        assert_eq!(keys.len() as u64, KEYS);
        assert_eq!(a.passes(3).len(), 3);
        b.passes(3);
        assert!(a.tree.keys().eq(&keys));
        assert_eq!(a.tree, b.tree);
        assert_ne!(a.tree, Calibrator::new().tree, "passes update values");
    }

    #[test]
    fn calibrated_scales_by_the_pass() {
        assert_eq!(calibrated(500.0, PASS_NS, PASS_NS), 500.0);
        assert_eq!(calibrated(500.0, 2.0 * PASS_NS, PASS_NS), 250.0);
    }

    #[test]
    fn copy_pass_copies_every_byte_with_any_worker_count() {
        for workers in [1, 2, 3] {
            let mut c = CopyPass::new(workers);
            assert_eq!(c.passes(1).len(), 1);
            assert_eq!(c.dst, c.src);
        }
    }
}
