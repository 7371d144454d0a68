//! Sparse byte-addressable memory images.
//!
//! Used as the data plane of the crash-consistency machinery: the
//! workload's ground-truth memory, the NVM persistent stack, and the
//! NVM staging buffer are all [`MemoryImage`]s. Copies between them
//! model the checkpoint data movement, and restore-after-crash
//! verification compares images byte for byte.

use std::collections::BTreeMap;

use prosper_memsim::addr::{VirtAddr, VirtRange};

/// Granularity of internal chunks (one 4 KiB page per chunk).
const CHUNK: u64 = 4096;

/// One chunk's worth of zeros: what an unwritten chunk reads as.
const ZEROS: [u8; CHUNK as usize] = [0; CHUNK as usize];

/// A sparse, byte-addressable memory image.
///
/// Unwritten bytes read as zero, matching demand-zeroed anonymous
/// memory.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct MemoryImage {
    chunks: BTreeMap<u64, Box<[u8; CHUNK as usize]>>,
}

/// Splits `[pos, pos + len)` at chunk boundaries into
/// `(chunk id, offset in chunk, bytes)` pieces.
fn pieces(pos: u64, len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = pos + len;
    let mut at = pos;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let off = at % CHUNK;
            let take = (end - at).min(CHUNK - off);
            let piece = (at / CHUNK, off as usize, take as usize);
            at += take;
            piece
        })
    })
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        Self::default()
    }

    fn chunk_mut(&mut self, id: u64) -> &mut [u8; CHUNK as usize] {
        self.chunks
            .entry(id)
            .or_insert_with(|| Box::new([0u8; CHUNK as usize]))
    }

    /// The `take` bytes at `off` of chunk `id`, zeros if it is unwritten.
    fn slice(&self, id: u64, off: usize, take: usize) -> &[u8] {
        let chunk = self.chunks.get(&id).map_or(&ZEROS, |c| &**c);
        &chunk[off..off + take]
    }

    /// Writes `bytes` starting at `addr`.
    pub fn write(&mut self, addr: VirtAddr, bytes: &[u8]) {
        let mut remaining = bytes;
        for (id, off, take) in pieces(addr.raw(), bytes.len() as u64) {
            self.chunk_mut(id)[off..off + take].copy_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out);
        out
    }

    /// Appends the `len` bytes starting at `addr` to `out`: [`Self::read`]
    /// into a caller-owned buffer, so a recycled buffer is refilled
    /// without a fresh allocation.
    pub fn read_into(&self, addr: VirtAddr, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        for (id, off, take) in pieces(addr.raw(), len as u64) {
            out.extend_from_slice(self.slice(id, off, take));
        }
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: VirtAddr) -> u64 {
        let bytes = self.read(addr, 8);
        u64::from_le_bytes(bytes.try_into().expect("read returned 8 bytes"))
    }

    /// Copies `len` bytes at `addr` from `src` into `self` (same
    /// addresses) — the checkpoint copy primitive. Copies chunk to
    /// chunk; an unwritten source chunk copies as zeros.
    pub fn copy_range_from(&mut self, src: &MemoryImage, addr: VirtAddr, len: usize) {
        for (id, off, take) in pieces(addr.raw(), len as u64) {
            self.chunk_mut(id)[off..off + take].copy_from_slice(src.slice(id, off, take));
        }
    }

    /// Returns `true` if `self` and `other` agree over `range`.
    pub fn matches(&self, other: &MemoryImage, range: VirtRange) -> bool {
        self.first_mismatch(other, range).is_none()
    }

    /// First differing address within `range`, if any (for diagnostics).
    /// Compares the chunk slices in place, chunk by chunk, so it stays
    /// cheap on sparse images and allocates nothing.
    pub fn first_mismatch(&self, other: &MemoryImage, range: VirtRange) -> Option<VirtAddr> {
        let start = range.start().raw();
        pieces(start, range.end().raw().saturating_sub(start)).find_map(|(id, off, take)| {
            let (a, b) = (self.slice(id, off, take), other.slice(id, off, take));
            if a == b {
                return None;
            }
            a.iter()
                .zip(b)
                .position(|(x, y)| x != y)
                .map(|i| VirtAddr::new(id * CHUNK + (off + i) as u64))
        })
    }

    /// Number of materialised 4 KiB chunks (diagnostics).
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let img = MemoryImage::new();
        assert_eq!(img.read(VirtAddr::new(0x5000), 4), vec![0, 0, 0, 0]);
        assert_eq!(img.resident_chunks(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut img = MemoryImage::new();
        img.write(VirtAddr::new(0x1234), b"hello");
        assert_eq!(img.read(VirtAddr::new(0x1234), 5), b"hello");
        assert_eq!(img.read(VirtAddr::new(0x1233), 1), vec![0]);
    }

    #[test]
    fn write_across_chunk_boundary() {
        let mut img = MemoryImage::new();
        let addr = VirtAddr::new(CHUNK - 2);
        img.write(addr, &[1, 2, 3, 4]);
        assert_eq!(img.read(addr, 4), vec![1, 2, 3, 4]);
        assert_eq!(img.resident_chunks(), 2);
    }

    #[test]
    fn u64_helpers() {
        let mut img = MemoryImage::new();
        img.write_u64(VirtAddr::new(0x100), 0xdead_beef_cafe_f00d);
        assert_eq!(img.read_u64(VirtAddr::new(0x100)), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn copy_range_between_images() {
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        a.write(VirtAddr::new(0x2000), &[9; 128]);
        b.copy_range_from(&a, VirtAddr::new(0x2000), 128);
        let range = VirtRange::new(VirtAddr::new(0x2000), VirtAddr::new(0x2080));
        assert!(a.matches(&b, range));
    }

    #[test]
    fn mismatch_located() {
        let mut a = MemoryImage::new();
        let b = MemoryImage::new();
        a.write(VirtAddr::new(0x3005), &[1]);
        let range = VirtRange::new(VirtAddr::new(0x3000), VirtAddr::new(0x3010));
        assert!(!a.matches(&b, range));
        assert_eq!(a.first_mismatch(&b, range), Some(VirtAddr::new(0x3005)));
    }

    #[test]
    fn read_into_appends_and_reads_missing_chunks_as_zero() {
        let mut img = MemoryImage::new();
        img.write(VirtAddr::new(CHUNK - 2), &[7, 8]);
        let mut buf = vec![1u8];
        img.read_into(VirtAddr::new(CHUNK - 3), 5, &mut buf);
        assert_eq!(buf, vec![1, 0, 7, 8, 0, 0]);
        // A recycled buffer refills to exactly the requested bytes.
        buf.clear();
        img.read_into(VirtAddr::new(3 * CHUNK), 3, &mut buf);
        assert_eq!(buf, vec![0; 3]);
        assert_eq!(img.resident_chunks(), 1, "reads materialise nothing");
    }

    #[test]
    fn missing_chunks_compare_as_zeros() {
        let mut a = MemoryImage::new();
        let b = MemoryImage::new();
        // A written-but-zero chunk matches an unwritten one.
        a.write(VirtAddr::new(0x1000), &[0; 16]);
        let range = VirtRange::new(VirtAddr::new(0), VirtAddr::new(3 * CHUNK));
        assert!(a.matches(&b, range));
        assert!(b.matches(&a, range));
        a.write(VirtAddr::new(2 * CHUNK + 9), &[1]);
        assert_eq!(
            b.first_mismatch(&a, range),
            Some(VirtAddr::new(2 * CHUNK + 9))
        );
    }

    #[test]
    fn copy_range_spans_chunks_and_copies_holes_as_zeros() {
        let mut src = MemoryImage::new();
        src.write(VirtAddr::new(CHUNK - 4), &[5; 8]);
        let mut dst = MemoryImage::new();
        dst.write(VirtAddr::new(2 * CHUNK), &[9; 4]);
        dst.copy_range_from(&src, VirtAddr::new(CHUNK - 4), CHUNK as usize + 8);
        let range = VirtRange::new(VirtAddr::new(0), VirtAddr::new(3 * CHUNK));
        assert!(dst.matches(&src, range), "the hole overwrote the 9s");
    }

    #[test]
    fn matches_empty_range() {
        let a = MemoryImage::new();
        let b = MemoryImage::new();
        let range = VirtRange::new(VirtAddr::new(0x100), VirtAddr::new(0x100));
        assert!(a.matches(&b, range));
        assert_eq!(a.first_mismatch(&b, range), None);
    }
}
