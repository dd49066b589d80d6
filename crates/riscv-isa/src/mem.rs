//! Sparse, copy-on-write physical memory.
//!
//! [`SparseMemory`] stores guest memory as 4 KiB pages behind [`Arc`]s.
//! Cloning it is cheap — only the page table is copied, the pages
//! themselves are shared and duplicated lazily on the next write. This is
//! the substrate of the LightSSS snapshot mechanism: where the paper uses
//! `fork()` and the kernel's copy-on-write, this reproduction uses
//! `Arc::make_mut` and language-level copy-on-write (see DESIGN.md §5.3).

use std::collections::HashMap;
use std::sync::Arc;

/// Page size in bytes (matches the Sv39 base page).
pub const PAGE_SIZE: u64 = 4096;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

type Page = [u8; PAGE_SIZE as usize];

/// Abstract byte-addressed physical memory.
///
/// Implemented by [`SparseMemory`] and by the cache hierarchy front doors
/// in `uncore`, so interpreters and the core model are generic over where
/// their memory traffic actually goes.
pub trait PhysMem {
    /// Read `buf.len()` bytes starting at physical address `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);
    /// Write `buf` starting at physical address `addr`.
    fn write(&mut self, addr: u64, buf: &[u8]);

    /// Read an unsigned little-endian value of `size` bytes (1/2/4/8).
    fn read_uint(&mut self, addr: u64, size: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size as usize]);
        u64::from_le_bytes(buf)
    }

    /// Write the low `size` bytes of `value` little-endian.
    fn write_uint(&mut self, addr: u64, size: u64, value: u64) {
        let buf = value.to_le_bytes();
        self.write(addr, &buf[..size as usize]);
    }

    /// Fetch 32 bits for instruction decode (may cross a page boundary).
    fn fetch32(&mut self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }
}

/// Sparse copy-on-write physical memory.
///
/// Unbacked reads return zero; writes allocate pages on demand.
///
/// # Example
///
/// ```
/// use riscv_isa::mem::{PhysMem, SparseMemory};
/// let mut mem = SparseMemory::new();
/// mem.write_uint(0x8000_0000, 8, 0xdead_beef);
/// assert_eq!(mem.read_uint(0x8000_0000, 8), 0xdead_beef);
///
/// // Snapshots are cheap: pages are shared until written.
/// let snapshot = mem.clone();
/// mem.write_uint(0x8000_0000, 8, 1);
/// assert_eq!(snapshot.clone().read_uint(0x8000_0000, 8), 0xdead_beef);
/// ```
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Arc<Page>>,
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl SparseMemory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages whose storage is currently shared with a snapshot.
    ///
    /// Used by the LightSSS evaluation to observe copy-on-write behavior.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Copy a byte slice into memory (used by program loaders).
    pub fn load_image(&mut self, addr: u64, image: &[u8]) {
        self.write(addr, image);
    }

    /// Serialize the entire memory eagerly into a flat byte buffer.
    ///
    /// This is deliberately expensive — it is the "SSS" baseline snapshot
    /// of paper §III-C2, contrasted against the incremental COW clone.
    pub fn serialize_full(&self) -> Vec<u8> {
        let mut keys: Vec<_> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(16 + self.pages.len() * (8 + PAGE_SIZE as usize));
        out.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        for k in keys {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&self.pages[&k][..]);
        }
        out
    }

    /// Rebuild a memory from the output of [`Self::serialize_full`].
    /// Returns `None` if the buffer is truncated or has trailing bytes.
    pub fn deserialize_full(data: &[u8]) -> Option<Self> {
        let entry = 8 + PAGE_SIZE as usize;
        let n = u64::from_le_bytes(data.get(..8)?.try_into().ok()?) as usize;
        if n.checked_mul(entry)?.checked_add(8)? != data.len() {
            return None;
        }
        let pages = data[8..]
            .chunks_exact(entry)
            .map(|c| {
                let k = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
                let mut page = [0u8; PAGE_SIZE as usize];
                page.copy_from_slice(&c[8..]);
                (k, Arc::new(page))
            })
            .collect();
        Some(SparseMemory { pages })
    }

    #[inline]
    fn page_mut(&mut self, page_idx: u64) -> &mut Page {
        Arc::make_mut(
            self.pages
                .entry(page_idx)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])),
        )
    }
}

impl PhysMem for SparseMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut done = 0;
        while done < buf.len() {
            let page_idx = addr / PAGE_SIZE;
            let off = (addr & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize - off) as usize).min(buf.len() - done);
            match self.pages.get(&page_idx) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr += n as u64;
        }
    }

    fn write(&mut self, addr: u64, buf: &[u8]) {
        let mut addr = addr;
        let mut done = 0;
        while done < buf.len() {
            let page_idx = addr / PAGE_SIZE;
            let off = (addr & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize - off) as usize).min(buf.len() - done);
            self.page_mut(page_idx)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_unbacked_read() {
        let mut m = SparseMemory::new();
        assert_eq!(m.read_uint(0x1234, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_uint(0x8000_0000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x8000_0000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x8000_0004, 4), 0x1122_3344);
        assert_eq!(m.read_uint(0x8000_0000, 1), 0x88);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE - 4;
        m.write_uint(addr, 8, 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.read_uint(addr, 8), 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cow_snapshot_isolation() {
        let mut m = SparseMemory::new();
        m.write_uint(0x1000, 8, 42);
        let snap = m.clone();
        assert_eq!(m.shared_pages(), 1);
        m.write_uint(0x1000, 8, 99);
        // The write duplicated the page; the snapshot sees the old value.
        let mut snap = snap;
        assert_eq!(snap.read_uint(0x1000, 8), 42);
        assert_eq!(m.read_uint(0x1000, 8), 99);
        assert_eq!(m.shared_pages(), 0);
    }

    #[test]
    fn full_serialization_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_uint(0x0, 8, 1);
        m.write_uint(0x10_0000, 8, 2);
        m.write_uint(0xdead_b000, 4, 3);
        let blob = m.serialize_full();
        let mut back = SparseMemory::deserialize_full(&blob).expect("round trip");
        assert!(SparseMemory::deserialize_full(&blob[..blob.len() - 1]).is_none());
        assert_eq!(back.read_uint(0x0, 8), 1);
        assert_eq!(back.read_uint(0x10_0000, 8), 2);
        assert_eq!(back.read_uint(0xdead_b000, 4), 3);
        assert_eq!(back.resident_pages(), m.resident_pages());
    }

    #[test]
    fn load_image_places_bytes() {
        let mut m = SparseMemory::new();
        m.load_image(0x8000_0000, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_uint(0x8000_0000, 4), 0x0403_0201);
        assert_eq!(m.read_uint(0x8000_0004, 1), 5);
    }
}
