//! The data plane: a per-thread persistent stack in NVM, updated
//! crash-consistently in two steps (Section III-B, point 4–5 of
//! Figure 6).
//!
//! At each checkpoint the OS first copies the dirty stack bytes into a
//! **staging buffer** in NVM together with a record of where they
//! belong; only once the staging buffer is complete is it **applied**
//! to the per-thread persistent stack. A commit sequence number is
//! written last. A crash before the apply completes recovers by
//! re-applying the (complete) staging buffer; a crash before the
//! staging buffer is sealed discards it — either way the persistent
//! stack reflects a whole checkpoint, never a torn one.
//!
//! # Staged-delta spine (PR 8)
//!
//! The eager protocol pays the dirty-byte bill twice per interval:
//! once DRAM→staging and once staging→persistent-stack, with the
//! second copy on the commit critical path. The spine mode removes
//! the second copy from the critical path LSM-style: sealing a commit
//! **appends** the staged buffer to an NVM-resident spine of
//! immutable [`DeltaBatch`]es instead of applying it, and the seal
//! remains the sole durability point. A deferred **merge** —
//! triggered by batch count or overlapping-byte ratio, tunable via
//! [`SpineConfig`] — folds the spine newest-wins into the persistent
//! image, writing each surviving byte exactly once (overlapped bytes
//! from older batches are never written). Recovery folds the same
//! way; reads that need the durable state consult the spine-aware
//! [`PersistentStack::read_effective`].

use std::convert::Infallible;

use prosper_gemos::crash::Persistent;
use prosper_gemos::image::MemoryImage;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use serde::{Deserialize, Serialize};

use crate::bitmap::CopyRun;

/// Commit phases a crash can interrupt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
enum CommitPhase {
    /// No commit in flight.
    Idle,
    /// Runs are being copied into the staging buffer (not yet sealed).
    Staging,
    /// The staging buffer is sealed; the apply to the persistent stack
    /// may be partially done.
    Sealed,
}

/// A staged run's descriptor: its target address and where its bytes
/// sit in the [`Payload`] buffer it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunDesc {
    /// Target address (raw).
    start: u64,
    /// Offset of the run's first byte in the payload buffer.
    off: usize,
    /// Run length in bytes.
    len: usize,
}

/// The runs of a staging buffer or a delta batch: `(start, len)`
/// descriptors into one byte buffer, so a whole buffer is recycled
/// (and refilled without faulting fresh pages) as one allocation.
/// Invariant: `bytes.len()` is the sum of the runs' lengths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Payload {
    runs: Vec<RunDesc>,
    bytes: Vec<u8>,
}

impl Payload {
    /// Empties the buffer, keeping both allocations.
    fn clear(&mut self) {
        self.runs.clear();
        self.bytes.clear();
    }

    /// Each run's target address and bytes, in buffer order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.runs
            .iter()
            .map(|r| (r.start, &self.bytes[r.off..r.off + r.len]))
    }

    /// Appends one run's descriptor for the bytes just pushed at `off`.
    fn push_run(&mut self, start: u64, off: usize) {
        let len = self.bytes.len() - off;
        self.runs.push(RunDesc { start, off, len });
    }
}

/// Tuning of the deferred spine merge (the LSM compaction policy).
///
/// A merge is triggered when **either** threshold is crossed: the
/// spine holds at least `max_batches` batches (bounding recovery
/// fold work), or the overlapping-byte ratio across batches reaches
/// `overlap_permille` (the write-amplification win of merging — every
/// overlapped byte is a byte the fold never writes — outweighs the
/// cost of rewriting the distinct coverage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpineConfig {
    /// Merge when the spine reaches this many batches (>= 2).
    pub max_batches: usize,
    /// Merge when `1000 * overlapped_bytes / total_batch_bytes`
    /// reaches this threshold (0 merges at every opportunity; 1001
    /// never triggers on overlap alone).
    pub overlap_permille: u32,
}

impl Default for SpineConfig {
    fn default() -> Self {
        Self {
            max_batches: 8,
            overlap_permille: 300,
        }
    }
}

impl SpineConfig {
    /// An eager-ish policy: merge as soon as two batches exist.
    #[must_use]
    pub fn merge_always() -> Self {
        Self {
            max_batches: 2,
            overlap_permille: 0,
        }
    }

    /// A lazy policy: merge only on batch-count pressure, never on
    /// overlap.
    #[must_use]
    pub fn lazy(max_batches: usize) -> Self {
        Self {
            max_batches,
            overlap_permille: 1001,
        }
    }
}

/// One immutable sealed delta batch on the spine: the staged runs of
/// exactly one committed sequence. Never mutated after
/// [`PersistentStack::seal_to_spine`] creates it; merges fold batches
/// into the persistent image and retire them wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaBatch {
    sequence: u64,
    payload: Payload,
}

impl DeltaBatch {
    /// The committed sequence this batch holds.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of runs in the batch.
    pub fn runs(&self) -> usize {
        self.payload.runs.len()
    }

    /// Total payload bytes in the batch.
    pub fn bytes(&self) -> u64 {
        self.payload.bytes.len() as u64
    }
}

/// What a completed merge did — the inputs for write-amplification
/// accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Batches folded into the persistent image and retired.
    pub batches_folded: u64,
    /// Total payload bytes across the folded batches.
    pub input_bytes: u64,
    /// Distinct NVM bytes actually written by the fold (always
    /// `<= input_bytes`; the difference is the overlap the merge
    /// never rewrites).
    pub written_bytes: u64,
}

/// Byte intervals `[start, end)`, kept sorted and disjoint.
type Coverage = Vec<(u64, u64)>;

/// Parts of `[start, end)` not covered by `coverage`.
fn subtract_coverage(start: u64, end: u64, coverage: &Coverage) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = start;
    for &(cs, ce) in coverage {
        if ce <= cursor {
            continue;
        }
        if cs >= end {
            break;
        }
        if cs > cursor {
            out.push((cursor, cs.min(end)));
        }
        cursor = cursor.max(ce);
        if cursor >= end {
            return out;
        }
    }
    if cursor < end {
        out.push((cursor, end));
    }
    out
}

/// Inserts `[start, end)` into `coverage`, merging adjacent and
/// overlapping intervals.
fn insert_coverage(coverage: &mut Coverage, start: u64, end: u64) {
    let mut merged = (start, end);
    let mut out = Vec::with_capacity(coverage.len() + 1);
    let mut placed = false;
    for &(cs, ce) in coverage.iter() {
        if ce < merged.0 {
            out.push((cs, ce));
        } else if cs > merged.1 {
            if !placed {
                out.push(merged);
                placed = true;
            }
            out.push((cs, ce));
        } else {
            merged = (merged.0.min(cs), merged.1.max(ce));
        }
    }
    if !placed {
        out.push(merged);
    }
    *coverage = out;
}

/// Folds a staging buffer into the minimal set of disjoint, maximal
/// runs with newest-wins byte values: where runs overlap, the
/// last-staged bytes survive; abutting runs concatenate into one
/// descriptor. A batch sealed from the result covers exactly the same
/// bytes with the same final values, but carries the fewest possible
/// run descriptors — which is what the spine persists per batch and
/// what every later merge walks.
///
/// Bitmap inspection always stages sorted, disjoint runs, and a
/// staging buffer lays its runs out back to back in staging order: such
/// a buffer is already minimal once abutting descriptors are joined, so
/// it is returned as it is and no byte is copied. Any other buffer is
/// folded into `spare`. Returns the coalesced buffer and the one left
/// over, for the free list.
fn coalesce_runs(mut staged: Payload, mut spare: Payload) -> (Payload, Payload) {
    if staged
        .runs
        .windows(2)
        .all(|w| w[0].start + w[0].len as u64 <= w[1].start)
    {
        staged.runs.retain(|r| r.len > 0);
        staged.runs.dedup_by(|next, prev| {
            let abuts =
                prev.start + prev.len as u64 == next.start && prev.off + prev.len == next.off;
            if abuts {
                prev.len += next.len;
            }
            abuts
        });
        return (staged, spare);
    }
    coalesce_folded(&staged, &mut spare);
    (spare, staged)
}

/// The general newest-wins fold of [`coalesce_runs`], for any run order:
/// writes the minimal runs of `staged` into `out`, copying each
/// surviving byte once.
fn coalesce_folded(staged: &Payload, out: &mut Payload) {
    let mut coverage: Coverage = Vec::new();
    // (target start, offset in `staged`, length) of every surviving
    // piece. Newest-first: only the parts of older runs not shadowed by
    // a newer run survive.
    let mut pieces: Vec<(u64, usize, usize)> = Vec::new();
    for run in staged.runs.iter().rev() {
        let (s, e) = (run.start, run.start + run.len as u64);
        for (ws, we) in subtract_coverage(s, e, &coverage) {
            pieces.push((ws, run.off + (ws - s) as usize, (we - ws) as usize));
        }
        insert_coverage(&mut coverage, s, e);
    }
    pieces.sort_unstable_by_key(|&(start, ..)| start);
    out.clear();
    for (start, off, len) in pieces {
        match out.runs.last_mut() {
            Some(prev) if prev.start + prev.len as u64 == start => prev.len += len,
            _ => out.runs.push(RunDesc {
                start,
                off: out.bytes.len(),
                len,
            }),
        }
        out.bytes.extend_from_slice(&staged.bytes[off..off + len]);
    }
}

/// The per-thread persistent stack store.
///
/// `volatile` mirrors the thread's live stack (in DRAM); `persistent`
/// is the NVM copy that recovery reads. All state that survives a
/// crash lives in `persistent`, `staging`, `sealed`, and
/// `committed_sequence` — [`PersistentStack::crash`] erases everything
/// else.
///
/// # Examples
///
/// ```
/// use prosper_core::bitmap::CopyRun;
/// use prosper_core::persist::PersistentStack;
/// use prosper_memsim::addr::{VirtAddr, VirtRange};
///
/// let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000));
/// let mut ps = PersistentStack::new(0, range);
/// ps.record_store(VirtAddr::new(0x7000_0100), b"saved");
/// ps.checkpoint(&[CopyRun { start: VirtAddr::new(0x7000_0100), len: 8 }]);
/// ps.crash();
/// ps.recover_after_crash();
/// assert_eq!(ps.volatile().read(VirtAddr::new(0x7000_0100), 5), b"saved");
/// ```
#[derive(Debug)]
pub struct PersistentStack {
    tid: u32,
    range: VirtRange,
    /// Live (DRAM) image of the stack.
    volatile: MemoryImage,
    /// NVM persistent stack.
    persistent: MemoryImage,
    /// NVM staging buffer (step one of the two-step commit).
    staging: Payload,
    /// Sequence the open staging buffer belongs to (0 when no buffer
    /// is open). Written with `begin_stage`, so after a crash recovery
    /// can tell a buffer staged for the sealed sequence N from one
    /// tagged for a later sequence that never sealed.
    staging_sequence: u64,
    /// Staging seal marker (durably written after all runs are staged).
    sealed: bool,
    phase: CommitPhase,
    /// Sequence number of the last fully-applied commit.
    committed_sequence: u64,
    next_sequence: u64,
    /// NVM-resident spine of immutable sealed delta batches, oldest
    /// first (ascending sequence). Empty in eager-apply mode.
    spine: Vec<DeltaBatch>,
    /// Free list of emptied payload buffers: retired staging buffers
    /// and merged batches, which the next stage refills. Host memory
    /// management only; what they held is irrelevant.
    spare: Vec<Payload>,
    /// Most buffers `spare` keeps: every buffer a spine holds before
    /// its merge, plus the staging buffer.
    spare_cap: usize,
}

impl PersistentStack {
    /// Creates an empty store for thread `tid` covering `range`.
    pub fn new(tid: u32, range: VirtRange) -> Self {
        Self {
            tid,
            range,
            volatile: MemoryImage::new(),
            persistent: MemoryImage::new(),
            staging: Payload::default(),
            staging_sequence: 0,
            sealed: false,
            phase: CommitPhase::Idle,
            committed_sequence: 0,
            next_sequence: 1,
            spine: Vec::new(),
            spare: Vec::new(),
            spare_cap: SpineConfig::default().max_batches + 1,
        }
    }

    /// Sizes the free list for `cfg`: its `max_batches` batches plus the
    /// staging buffer.
    pub(crate) fn size_spare_buffers(&mut self, cfg: &SpineConfig) {
        self.spare_cap = cfg.max_batches + 1;
    }

    /// Returns an emptied buffer to the free list, or drops it when the
    /// list is full.
    fn recycle(&mut self, mut payload: Payload) {
        if self.spare.len() < self.spare_cap && payload.bytes.capacity() > 0 {
            payload.clear();
            self.spare.push(payload);
        }
    }

    /// Owning thread.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The tracked stack range.
    pub fn range(&self) -> VirtRange {
        self.range
    }

    /// Records a live store into the volatile stack image.
    ///
    /// # Panics
    ///
    /// Panics if the write leaves the stack range.
    pub fn record_store(&mut self, addr: VirtAddr, bytes: &[u8]) {
        assert!(
            self.range.overlaps_access(addr, bytes.len() as u64),
            "store at {addr} outside stack range {}",
            self.range
        );
        self.volatile.write(addr, bytes);
    }

    /// The live volatile image.
    pub fn volatile(&self) -> &MemoryImage {
        &self.volatile
    }

    /// The persistent NVM image.
    pub fn persistent(&self) -> &MemoryImage {
        &self.persistent
    }

    /// Sequence number of the last complete commit.
    pub fn committed_sequence(&self) -> u64 {
        self.committed_sequence
    }

    /// Opens a fresh staging buffer (discarding any previous one).
    /// First step of the commit; a crash here leaves an empty,
    /// unsealed buffer that recovery discards. The buffer is tagged
    /// with this stack's own next sequence; whole-process commits use
    /// [`Self::begin_stage_at`] to tag it with the process sequence.
    pub fn begin_stage(&mut self) {
        self.begin_stage_at(self.next_sequence);
    }

    /// [`Self::begin_stage`] with an explicit sequence tag: the
    /// whole-process commit tags each buffer with the process sequence,
    /// which lets recovery redo a sealed record N without touching a
    /// buffer tagged for a later, never-sealed sequence.
    pub fn begin_stage_at(&mut self, sequence: u64) {
        self.phase = CommitPhase::Staging;
        self.sealed = false;
        self.staging.clear();
        if self.staging.bytes.capacity() == 0 {
            self.staging = self.spare.pop().unwrap_or_default();
        }
        self.staging_sequence = sequence;
    }

    /// Sequence tag of the open staging buffer (0 when none is open).
    pub fn staging_sequence(&self) -> u64 {
        self.staging_sequence
    }

    /// Stages one dirty run from the volatile image into the NVM
    /// staging buffer. Drivable run-by-run so fault injection can fire
    /// a crash between any two runs.
    pub fn stage_run(&mut self, run: &CopyRun) {
        debug_assert!(
            self.phase == CommitPhase::Staging,
            "stage_run outside an open staging buffer"
        );
        let off = self.staging.bytes.len();
        self.volatile
            .read_into(run.start, run.len as usize, &mut self.staging.bytes);
        self.staging.push_run(run.start.raw(), off);
    }

    /// Durably writes the seal marker: the staging buffer is complete
    /// and recovery may replay it. For whole-process commits the
    /// per-stack seal is superseded by the process commit record (see
    /// `prosper_core::recovery`).
    pub fn seal(&mut self) {
        self.sealed = true;
        self.phase = CommitPhase::Sealed;
    }

    /// Number of runs currently staged.
    pub fn staged_runs(&self) -> usize {
        self.staging.runs.len()
    }

    /// Total bytes currently staged across all runs — the
    /// deterministic work-size input for stall attribution's
    /// redo-cost model.
    pub fn staged_bytes(&self) -> u64 {
        self.staging.bytes.len() as u64
    }

    /// Bytes of the staged run at `idx` (0 when out of bounds; the
    /// cost model must never panic the commit path).
    pub fn staged_run_len(&self, idx: usize) -> u64 {
        self.staging.runs.get(idx).map_or(0, |r| r.len as u64)
    }

    /// Whether a sealed staging buffer exists.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// **Step one** of the commit: stage the dirty runs (as produced by
    /// bitmap inspection) from the volatile image into the NVM staging
    /// buffer, then seal it.
    pub fn stage(&mut self, runs: &[CopyRun]) {
        self.stage_partial(runs);
        self.seal();
    }

    /// Applies the staged run at `idx` to the persistent stack.
    /// Idempotent (staged runs carry absolute data), so recovery can
    /// replay applies interrupted at any point. Drivable run-by-run
    /// for fault injection.
    ///
    /// The caller vouches for the commit point: either this stack's
    /// seal marker ([`Self::apply`]) or a whole-process commit record.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds of the staging buffer.
    pub fn apply_run(&mut self, idx: usize) {
        let run = self.staging.runs[idx];
        self.persistent.write(
            VirtAddr::new(run.start),
            &self.staging.bytes[run.off..run.off + run.len],
        );
    }

    /// Finishes an apply: durably records `sequence` as the committed
    /// checkpoint and retires the staging buffer.
    pub fn finish_apply(&mut self, sequence: u64) {
        self.committed_sequence = sequence;
        self.next_sequence = self.next_sequence.max(sequence + 1);
        self.staging.clear();
        self.staging_sequence = 0;
        self.sealed = false;
        self.phase = CommitPhase::Idle;
    }

    /// Discards an unsealed staging buffer (what recovery does when
    /// the crash hit before the seal).
    pub fn discard_staging(&mut self) {
        self.staging.clear();
        self.staging_sequence = 0;
        self.sealed = false;
        self.phase = CommitPhase::Idle;
    }

    /// **Step two**: apply the sealed staging buffer to the persistent
    /// stack and bump the commit sequence.
    ///
    /// # Panics
    ///
    /// Panics if no sealed staging buffer exists.
    pub fn apply(&mut self) {
        assert!(
            self.sealed && self.phase == CommitPhase::Sealed,
            "apply without a sealed staging buffer"
        );
        for idx in 0..self.staging.runs.len() {
            self.apply_run(idx);
        }
        self.finish_apply(self.next_sequence);
    }

    /// Convenience: stage + apply in one call (the normal checkpoint
    /// path).
    pub fn checkpoint(&mut self, runs: &[CopyRun]) {
        self.stage(runs);
        self.apply();
    }

    /// Begins staging but stops **before the seal marker is written**
    /// — the state a crash leaves when it interrupts step one of the
    /// commit. Recovery must discard this buffer. Exposed for
    /// crash-injection tests and fault-injection harnesses.
    pub fn stage_partial(&mut self, runs: &[CopyRun]) {
        self.begin_stage();
        for run in runs {
            self.stage_run(run);
        }
        // Crash window: the seal marker is never written.
    }

    /// Simulates a power failure: volatile state is lost; persistent
    /// state (including any staged-but-unapplied buffer) survives.
    pub fn crash(&mut self) {
        self.volatile = MemoryImage::new();
    }

    /// Crash recovery: if a sealed staging buffer exists, the crash hit
    /// between seal and apply-complete — re-apply it idempotently. An
    /// unsealed buffer is discarded. The volatile image is then rebuilt
    /// from the persistent stack.
    pub fn recover_after_crash(&mut self) {
        if self.sealed {
            // Idempotent re-apply: staged runs carry absolute data.
            for idx in 0..self.staging.runs.len() {
                self.apply_run(idx);
            }
            self.finish_apply(self.next_sequence);
        } else {
            self.discard_staging();
        }
        self.volatile = self.persistent.clone();
    }

    // ------------------------------------------------------------------
    // Staged-delta spine (PR 8)
    // ------------------------------------------------------------------

    /// **Spine-mode step two**: retire the sealed staging buffer as an
    /// immutable delta batch appended to the spine, and durably record
    /// `sequence` as committed. No data is copied — the staging buffer
    /// *becomes* the batch — so the apply copy disappears from the
    /// commit critical path. The caller vouches for the commit point
    /// (this stack's seal or a whole-process commit record — the
    /// latter never writes the per-stack seal marker, so only an open
    /// staging buffer is required here).
    ///
    /// The staged runs are coalesced before the batch is sealed:
    /// overlapping runs collapse to their newest-wins bytes and
    /// abutting runs concatenate, so the batch persists the minimal
    /// descriptor list for its coverage. Sorted, disjoint runs — all
    /// bitmap inspection produces — keep their bytes where they are.
    pub fn seal_to_spine(&mut self, sequence: u64) {
        debug_assert!(
            self.phase != CommitPhase::Idle,
            "seal_to_spine without an open staging buffer"
        );
        let staged = std::mem::take(&mut self.staging);
        let spare = self.spare.pop().unwrap_or_default();
        let (payload, left) = coalesce_runs(staged, spare);
        self.recycle(left);
        self.spine.push(DeltaBatch { sequence, payload });
        self.committed_sequence = sequence;
        self.next_sequence = self.next_sequence.max(sequence + 1);
        self.staging_sequence = 0;
        self.sealed = false;
        self.phase = CommitPhase::Idle;
    }

    /// The spine, oldest batch first.
    pub fn spine(&self) -> &[DeltaBatch] {
        &self.spine
    }

    /// Number of batches currently on the spine.
    pub fn spine_batches(&self) -> usize {
        self.spine.len()
    }

    /// Total payload bytes across all spine batches.
    pub fn spine_bytes(&self) -> u64 {
        self.spine.iter().map(DeltaBatch::bytes).sum()
    }

    /// Distinct bytes the spine covers (each byte counted once no
    /// matter how many batches touch it) — what a merge would write.
    pub fn spine_distinct_bytes(&self) -> u64 {
        let mut coverage: Coverage = Vec::new();
        for batch in &self.spine {
            for run in &batch.payload.runs {
                insert_coverage(&mut coverage, run.start, run.start + run.len as u64);
            }
        }
        coverage.iter().map(|(s, e)| e - s).sum()
    }

    /// `1000 * overlapped_bytes / total_bytes` across the spine (0
    /// when the spine is empty or nothing overlaps).
    pub fn spine_overlap_permille(&self) -> u32 {
        let total = self.spine_bytes();
        if total == 0 {
            return 0;
        }
        let overlap = total - self.spine_distinct_bytes();
        u32::try_from(overlap * 1000 / total).unwrap_or(1000)
    }

    /// Whether the merge policy triggers right now.
    pub fn should_merge(&self, cfg: &SpineConfig) -> bool {
        self.spine.len() >= 2
            && (self.spine.len() >= cfg.max_batches
                || self.spine_overlap_permille() >= cfg.overlap_permille)
    }

    /// Folds the whole spine into the persistent image, newest batch
    /// first, straight from the batches' buffers: each batch writes only
    /// the bytes no newer batch covers, so newest-wins holds and every
    /// surviving byte is written exactly once. After each batch,
    /// `step(batches_folded, bytes_written)` observes the fold; an `Err`
    /// stops it there with the spine still in place. Each completed
    /// prefix of batches writes a subset of the full fold's writes with
    /// identical values, which is what makes a crash between batches
    /// recoverable by simply folding again. A completed fold retires
    /// the spine and returns its buffers to the free list.
    ///
    /// The one fold behind the commit engine's merge step,
    /// [`Self::merge_spine`] and recovery.
    ///
    /// # Errors
    ///
    /// Returns the first error `step` returned.
    pub fn fold_spine<E>(
        &mut self,
        mut step: impl FnMut(u32, u64) -> Result<(), E>,
    ) -> Result<MergeStats, E> {
        let input_bytes = self.spine_bytes();
        let mut coverage: Coverage = Vec::new();
        let mut written = 0;
        for (rank, batch) in self.spine.iter().rev().enumerate() {
            let mut bytes = 0;
            for (s, data) in batch.payload.iter() {
                let e = s + data.len() as u64;
                for (ws, we) in subtract_coverage(s, e, &coverage) {
                    let piece = &data[(ws - s) as usize..(we - s) as usize];
                    self.persistent.write(VirtAddr::new(ws), piece);
                    bytes += we - ws;
                }
                insert_coverage(&mut coverage, s, e);
            }
            written += bytes;
            step(rank as u32 + 1, bytes)?;
        }
        let folded = self.spine.len();
        for batch in std::mem::take(&mut self.spine) {
            self.recycle(batch.payload);
        }
        Ok(MergeStats {
            batches_folded: folded as u64,
            input_bytes,
            written_bytes: written,
        })
    }

    /// Folds the whole spine newest-wins into the persistent image
    /// and retires it ([`Self::fold_spine`] with no observer). Off the
    /// commit critical path; also the recovery fold. Idempotent and
    /// crash-safe: batches are immutable and a partial fold writes a
    /// value-identical subset of the full fold.
    pub fn merge_spine(&mut self) -> MergeStats {
        match self.fold_spine(|_, _| Ok::<(), Infallible>(())) {
            Ok(stats) => stats,
            Err(never) => match never {},
        }
    }

    /// Spine-aware durable read: the persistent image with every spine
    /// batch folded over it, newest-wins, for `len` bytes at `addr`.
    /// What recovery and coherence checks consult while batches are
    /// still unmerged.
    pub fn read_effective(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = self.persistent.read(addr, len);
        let (lo, hi) = (addr.raw(), addr.raw() + len as u64);
        // Oldest→newest overlay: later batches overwrite earlier ones.
        for batch in &self.spine {
            for (rs, data) in batch.payload.iter() {
                let re = rs + data.len() as u64;
                let (s, e) = (rs.max(lo), re.min(hi));
                if s < e {
                    out[(s - lo) as usize..(e - lo) as usize]
                        .copy_from_slice(&data[(s - rs) as usize..(e - rs) as usize]);
                }
            }
        }
        out
    }

    /// Spine-mode crash recovery: a sealed staging buffer (crash after
    /// the seal, before the batch append) is retired to the spine —
    /// redo, the seal was the commit point — and an unsealed one is
    /// discarded. The spine is then folded into the persistent image
    /// and the volatile image rebuilt from it.
    pub fn recover_spine_after_crash(&mut self) {
        if self.sealed {
            self.seal_to_spine(self.next_sequence);
        } else {
            self.discard_staging();
        }
        self.merge_spine();
        self.volatile = self.persistent.clone();
    }
}

impl Persistent for PersistentStack {
    fn commit(&mut self) {
        // Without tracking information, commit conservatively copies
        // the whole active image (tests exercise the tracked path via
        // `checkpoint`).
        let run = CopyRun {
            start: self.range.start(),
            len: self.range.len(),
        };
        self.checkpoint(&[run]);
    }

    fn recover(&mut self) {
        self.crash();
        self.recover_after_crash();
    }

    fn recovered_image(&self) -> &MemoryImage {
        &self.persistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PersistentStack {
        PersistentStack::new(
            0,
            VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000)),
        )
    }

    fn run(start: u64, len: u64) -> CopyRun {
        CopyRun {
            start: VirtAddr::new(start),
            len,
        }
    }

    #[test]
    fn checkpoint_then_crash_recovers_committed_data() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"committed");
        s.checkpoint(&[run(0x7000_0100, 16)]);
        // Post-checkpoint write is lost at the crash.
        s.record_store(VirtAddr::new(0x7000_0100), b"uncommitt");
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0100), 9),
            b"committed"
        );
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn crash_during_staging_discards_partial_buffer() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0200), b"old");
        s.checkpoint(&[run(0x7000_0200, 8)]);
        s.record_store(VirtAddr::new(0x7000_0200), b"new");
        // Begin staging but crash before the seal marker is written.
        s.stage_partial(&[run(0x7000_0200, 8)]);
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0200), 3),
            b"old",
            "unsealed staging discarded"
        );
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn crash_between_seal_and_apply_replays_staging() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0300), b"fresh");
        s.stage(&[run(0x7000_0300, 8)]);
        // Crash after seal, before apply.
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0300), 5),
            b"fresh",
            "sealed staging replayed on recovery"
        );
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn run_by_run_staging_matches_batched_stage() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"alpha");
        s.record_store(VirtAddr::new(0x7000_0200), b"beta");
        s.begin_stage();
        s.stage_run(&run(0x7000_0100, 8));
        assert_eq!(s.staged_runs(), 1);
        s.stage_run(&run(0x7000_0200, 8));
        assert!(!s.is_sealed());
        s.seal();
        assert!(s.is_sealed());
        s.apply();
        assert_eq!(s.committed_sequence(), 1);
        assert_eq!(s.persistent().read(VirtAddr::new(0x7000_0100), 5), b"alpha");
        assert_eq!(s.persistent().read(VirtAddr::new(0x7000_0200), 4), b"beta");
    }

    #[test]
    fn crash_mid_apply_replays_all_runs_idempotently() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"one");
        s.record_store(VirtAddr::new(0x7000_0200), b"two");
        s.stage(&[run(0x7000_0100, 8), run(0x7000_0200, 8)]);
        // Apply the first run, then crash: the sealed buffer replays
        // in full on recovery, landing exactly one commit.
        s.apply_run(0);
        s.crash();
        s.recover_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0100), 3), b"one");
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0200), 3), b"two");
        assert_eq!(s.committed_sequence(), 1);
        assert_eq!(s.staged_runs(), 0);
    }

    #[test]
    fn finish_apply_with_external_sequence_keeps_counter_monotonic() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"proc");
        s.begin_stage();
        s.stage_run(&run(0x7000_0100, 8));
        s.apply_run(0);
        // A whole-process commit record supplies the sequence.
        s.finish_apply(7);
        assert_eq!(s.committed_sequence(), 7);
        // The next standalone checkpoint continues past it.
        s.record_store(VirtAddr::new(0x7000_0100), b"solo");
        s.checkpoint(&[run(0x7000_0100, 8)]);
        assert_eq!(s.committed_sequence(), 8);
    }

    #[test]
    fn only_staged_runs_persist() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0400), b"in-run");
        s.record_store(VirtAddr::new(0x7000_0500), b"not-in-run");
        s.checkpoint(&[run(0x7000_0400, 8)]);
        s.crash();
        s.recover_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0400), 6), b"in-run");
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0500), 10),
            vec![0u8; 10],
            "unstaged bytes were never persisted"
        );
    }

    #[test]
    fn sequence_advances_per_commit() {
        let mut s = store();
        for i in 0..5 {
            s.record_store(VirtAddr::new(0x7000_0000), &[i as u8; 8]);
            s.checkpoint(&[run(0x7000_0000, 8)]);
        }
        assert_eq!(s.committed_sequence(), 5);
    }

    #[test]
    fn staging_sequence_tags_survive_crash_and_clear_on_retire() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"ahead");
        assert_eq!(s.staging_sequence(), 0, "no open buffer yet");
        // A buffer staged ahead for a later whole-process sequence
        // keeps its tag across the crash (it lives in NVM)...
        s.begin_stage_at(7);
        s.stage_run(&run(0x7000_0100, 8));
        s.crash();
        assert_eq!(s.staging_sequence(), 7);
        // ...and recovery discards the unsealed buffer and drops the tag.
        s.recover_after_crash();
        assert_eq!(s.staging_sequence(), 0);
        assert_eq!(s.staged_runs(), 0);
        // finish_apply also retires the tag.
        s.record_store(VirtAddr::new(0x7000_0100), b"again");
        s.begin_stage_at(9);
        s.stage_run(&run(0x7000_0100, 8));
        s.apply_run(0);
        s.finish_apply(9);
        assert_eq!(s.staging_sequence(), 0);
        assert_eq!(s.committed_sequence(), 9);
    }

    #[test]
    fn spine_commit_defers_apply_and_reads_effective() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"alpha");
        s.stage(&[run(0x7000_0100, 8)]);
        s.seal_to_spine(1);
        assert_eq!(s.committed_sequence(), 1);
        assert_eq!(s.spine_batches(), 1);
        // The apply copy never ran: the persistent image is untouched…
        assert_eq!(s.persistent().read(VirtAddr::new(0x7000_0100), 5), [0; 5]);
        // …but the spine-aware durable read sees the committed bytes.
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0100), 5), b"alpha");
    }

    #[test]
    fn spine_newest_wins_on_overlap() {
        let mut s = store();
        for (seq, val) in [(1u64, b"aaaaaaaa"), (2, b"bbbbbbbb")] {
            s.record_store(VirtAddr::new(0x7000_0100), val);
            s.stage(&[run(0x7000_0100, 8)]);
            s.seal_to_spine(seq);
        }
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0100), 8), b"bbbbbbbb");
        let stats = s.merge_spine();
        assert_eq!(stats.batches_folded, 2);
        assert_eq!(stats.input_bytes, 16);
        assert_eq!(stats.written_bytes, 8, "overlapped bytes written once");
        assert_eq!(
            s.persistent().read(VirtAddr::new(0x7000_0100), 8),
            b"bbbbbbbb"
        );
        assert_eq!(s.spine_batches(), 0);
    }

    #[test]
    fn seal_coalesces_adjacent_and_overlapping_runs() {
        let mut s = store();
        // Three abutting runs plus an overlapping restage: one
        // descriptor should survive, carrying the newest bytes.
        s.record_store(VirtAddr::new(0x7000_0100), b"abcdefghijkl");
        s.stage(&[
            run(0x7000_0100, 4),
            run(0x7000_0104, 4),
            run(0x7000_0108, 4),
        ]);
        s.seal_to_spine(1);
        assert_eq!(s.spine()[0].runs(), 1, "abutting runs coalesce");
        assert_eq!(s.spine()[0].bytes(), 12);
        assert_eq!(
            s.read_effective(VirtAddr::new(0x7000_0100), 12),
            b"abcdefghijkl"
        );

        // Overlapping restage inside one buffer: newest bytes win and
        // the batch still holds a single maximal run.
        s.record_store(VirtAddr::new(0x7000_0200), b"old-old-");
        s.begin_stage();
        s.stage_run(&run(0x7000_0200, 8));
        s.record_store(VirtAddr::new(0x7000_0204), b"NEW!");
        s.stage_run(&run(0x7000_0204, 4));
        s.seal_to_spine(2);
        let batch = &s.spine()[1];
        assert_eq!(batch.runs(), 1, "overlap folds into one descriptor");
        assert_eq!(batch.bytes(), 8, "shadowed bytes dropped from the batch");
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0200), 8), b"old-NEW!");

        // Disjoint runs stay separate descriptors.
        s.record_store(VirtAddr::new(0x7000_0300), b"aaaa");
        s.record_store(VirtAddr::new(0x7000_0400), b"bbbb");
        s.stage(&[run(0x7000_0300, 4), run(0x7000_0400, 4)]);
        s.seal_to_spine(3);
        assert_eq!(s.spine()[2].runs(), 2, "a gap keeps runs apart");

        // The merged image agrees with the volatile truth.
        s.merge_spine();
        assert_eq!(
            s.persistent().read(VirtAddr::new(0x7000_0200), 8),
            b"old-NEW!"
        );
    }

    #[test]
    fn fold_prefix_is_crash_safe() {
        let mut s = store();
        // Batch 1: two runs; batch 2 overlaps the first run's tail.
        s.record_store(VirtAddr::new(0x7000_0100), b"oldoldold");
        s.record_store(VirtAddr::new(0x7000_0200), b"keepme");
        s.stage(&[run(0x7000_0100, 9), run(0x7000_0200, 6)]);
        s.seal_to_spine(1);
        s.record_store(VirtAddr::new(0x7000_0104), b"newnew");
        s.stage(&[run(0x7000_0104, 6)]);
        s.seal_to_spine(2);

        // Crash mid-merge: only the newest batch folded, spine intact.
        let mut steps = Vec::new();
        let torn = s.fold_spine(|folded, bytes| {
            steps.push((folded, bytes));
            Err(())
        });
        assert!(torn.is_err());
        // The newest batch writes its full 6 bytes.
        assert_eq!(steps, [(1, 6)]);
        assert_eq!(s.spine_batches(), 2, "a torn fold retires nothing");
        // The full fold: the older batch is shadowed where batch 2
        // covers it ([0x104, 0x109) = 5 bytes).
        let mut steps = Vec::new();
        let mut probe = PersistentStack::new(0, s.range());
        probe.spine = s.spine.clone();
        let stats = probe
            .fold_spine(|folded, bytes| {
                steps.push((folded, bytes));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(steps, [(1, 6), (2, 9 - 5 + 6)]);
        assert_eq!(stats.written_bytes, 6 + 9 - 5 + 6);
        s.crash();
        s.recover_spine_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0100), 10),
            b"oldonewnew"
        );
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0200), 6), b"keepme");
        assert_eq!(s.spine_batches(), 0, "recovery folds and retires");
        assert_eq!(s.committed_sequence(), 2);
    }

    #[test]
    fn spine_overlap_policy_triggers_merge() {
        let mut s = store();
        for seq in 1..=3u64 {
            s.record_store(VirtAddr::new(0x7000_0100), &[seq as u8; 8]);
            s.stage(&[run(0x7000_0100, 8)]);
            s.seal_to_spine(seq);
        }
        // Fully overlapping batches: 16 of 24 bytes are overlap.
        assert_eq!(s.spine_overlap_permille(), 666);
        assert!(s.should_merge(&SpineConfig::default()));
        assert!(!s.should_merge(&SpineConfig::lazy(8)), "lazy policy waits");
        assert!(s.should_merge(&SpineConfig::lazy(3)), "count pressure");
    }

    #[test]
    fn spine_recovery_after_seal_redoes_batch() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0300), b"fresh");
        s.stage(&[run(0x7000_0300, 8)]);
        // Crash after seal, before the batch append: the seal is the
        // commit point, recovery must retire it to the spine (redo).
        s.crash();
        s.recover_spine_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0300), 5), b"fresh");
        assert_eq!(s.committed_sequence(), 1);

        // Unsealed staging is discarded, durable batches survive.
        s.record_store(VirtAddr::new(0x7000_0300), b"torn!");
        s.stage_partial(&[run(0x7000_0300, 8)]);
        s.crash();
        s.recover_spine_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0300), 5), b"fresh");
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn spine_differential_matches_eager_apply() {
        // The same commit history through both modes lands the same
        // persistent image.
        let mut eager = store();
        let mut spine = store();
        let writes: [(u64, &[u8]); 4] = [
            (0x7000_0100, b"first"),
            (0x7000_0140, b"second"),
            (0x7000_0100, b"third"),
            (0x7000_0108, b"fourth"),
        ];
        for (seq, (addr, bytes)) in writes.iter().enumerate() {
            eager.record_store(VirtAddr::new(*addr), bytes);
            eager.stage(&[run(*addr, bytes.len() as u64 + 2)]);
            eager.apply();
            spine.record_store(VirtAddr::new(*addr), bytes);
            spine.stage(&[run(*addr, bytes.len() as u64 + 2)]);
            spine.seal_to_spine(seq as u64 + 1);
        }
        spine.merge_spine();
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_1000));
        assert!(eager.persistent().matches(spine.persistent(), range));
        assert_eq!(eager.committed_sequence(), spine.committed_sequence());
    }

    /// A payload of `layout` `(start, len)` runs in staging order; the
    /// byte at position `i` of run `k` is distinct per run and offset.
    fn payload(layout: &[(u64, u64)]) -> Payload {
        let mut p = Payload::default();
        for (k, &(start, len)) in layout.iter().enumerate() {
            let off = p.bytes.len();
            p.bytes
                .extend((0..len).map(|i| (k as u64 * 37 + i * 3 + 1) as u8));
            p.push_run(start, off);
        }
        p
    }

    /// A payload as `(start, bytes)` runs, independent of its layout.
    fn logical(p: &Payload) -> Vec<(u64, Vec<u8>)> {
        p.iter().map(|(s, d)| (s, d.to_vec())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The sorted-disjoint shortcut of `coalesce_runs` returns what
        /// the general fold returns, and both are newest-wins, sorted,
        /// disjoint and never abutting — for sorted inputs (gaps of 0
        /// abut) and for arbitrary, overlapping ones.
        #[test]
        fn coalesce_shortcut_matches_the_general_fold(
            runs in proptest::collection::vec((0u64..96, 0u64..24, 0u64..3), 0..12)
        ) {
            let mut end = 0;
            let sorted: Vec<(u64, u64)> = runs
                .iter()
                .map(|&(_, len, gap)| {
                    let start = end + gap;
                    end = start + len;
                    (start, len)
                })
                .collect();
            let arbitrary: Vec<(u64, u64)> = runs.iter().map(|&(s, l, _)| (s, l)).collect();
            for layout in [sorted, arbitrary] {
                let staged = payload(&layout);
                let (shortcut, _) = coalesce_runs(staged.clone(), Payload::default());
                let mut folded = Payload::default();
                coalesce_folded(&staged, &mut folded);
                proptest::prop_assert_eq!(logical(&shortcut), logical(&folded));
                // Newest wins: replay the runs in staging order.
                let mut truth = std::collections::BTreeMap::new();
                for (s, d) in staged.iter() {
                    for (i, &b) in d.iter().enumerate() {
                        truth.insert(s + i as u64, b);
                    }
                }
                let mut got = std::collections::BTreeMap::new();
                for (s, d) in shortcut.iter() {
                    for (i, &b) in d.iter().enumerate() {
                        proptest::prop_assert!(got.insert(s + i as u64, b).is_none());
                    }
                }
                proptest::prop_assert_eq!(&got, &truth);
                for w in shortcut.runs.windows(2) {
                    proptest::prop_assert!(w[0].start + (w[0].len as u64) < w[1].start);
                }
                proptest::prop_assert!(shortcut.runs.iter().all(|r| r.len > 0));
                proptest::prop_assert_eq!(
                    shortcut.bytes.len(),
                    shortcut.runs.iter().map(|r| r.len).sum::<usize>()
                );
            }
        }
    }

    /// Sorted, disjoint staging is sealed without a copy: the batch
    /// keeps the staging buffer's bytes, with abutting runs joined.
    #[test]
    fn sorted_disjoint_staging_seals_in_place() {
        let staged = payload(&[(0x100, 8), (0x108, 8), (0x200, 4)]);
        let ptr = staged.bytes.as_ptr();
        let (batch, _) = coalesce_runs(staged, Payload::default());
        assert_eq!(batch.bytes.as_ptr(), ptr, "no copy");
        assert_eq!(
            batch.runs,
            [
                RunDesc {
                    start: 0x100,
                    off: 0,
                    len: 16
                },
                RunDesc {
                    start: 0x200,
                    off: 16,
                    len: 4
                }
            ]
        );
    }

    /// A long run, a merge, then shorter and disjoint runs through the
    /// recycled buffers: every batch, the effective image and the
    /// recovered image hold exactly what was staged, and the free list
    /// stays within `max_batches + 1` buffers.
    #[test]
    fn recycled_buffers_hold_exactly_the_staged_bytes() {
        let mut s = store();
        let cfg = SpineConfig::merge_always();
        s.size_spare_buffers(&cfg);
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_2000));
        let rounds: [&[(u64, u64)]; 5] = [
            &[(0x7000_0000, 0x2000)],
            &[(0x7000_0000, 0x2000)],
            &[(0x7000_0100, 0x40), (0x7000_1000, 0x10)],
            &[(0x7000_0800, 8)],
            &[(0x7000_0040, 0x20), (0x7000_1f00, 0x100)],
        ];
        for (seq, layout) in rounds.iter().enumerate() {
            for &(start, len) in *layout {
                s.record_store(VirtAddr::new(start), &vec![seq as u8 + 0xA0; len as usize]);
            }
            let runs: Vec<CopyRun> = layout.iter().map(|&(st, l)| run(st, l)).collect();
            s.stage(&runs);
            let want: u64 = layout.iter().map(|r| r.1).sum();
            assert_eq!(s.staged_bytes(), want, "round {seq}: staged bytes");
            s.seal_to_spine(seq as u64 + 1);
            assert_eq!(s.spine().last().map(DeltaBatch::bytes), Some(want));
            assert_eq!(
                s.read_effective(range.start(), range.len() as usize),
                s.volatile().read(range.start(), range.len() as usize),
                "round {seq}: effective image"
            );
            if s.should_merge(&cfg) {
                s.merge_spine();
            }
            assert!(s.spare.len() <= cfg.max_batches + 1);
        }
        let truth = s.volatile().clone();
        s.crash();
        s.recover_spine_after_crash();
        assert!(s.volatile().matches(&truth, range), "recovered image");
    }

    #[test]
    #[should_panic(expected = "apply without a sealed staging buffer")]
    fn apply_without_stage_panics() {
        store().apply();
    }

    #[test]
    #[should_panic(expected = "outside stack range")]
    fn out_of_range_store_rejected() {
        store().record_store(VirtAddr::new(0x100), b"x");
    }

    #[test]
    fn persistent_trait_full_range_commit() {
        let mut s = PersistentStack::new(
            0,
            VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_1000)),
        );
        s.record_store(VirtAddr::new(0x7000_0800), &[0xab; 32]);
        Persistent::commit(&mut s);
        Persistent::recover(&mut s);
        assert_eq!(
            s.recovered_image().read(VirtAddr::new(0x7000_0800), 32),
            vec![0xab; 32]
        );
    }
}
