//! Device memory: global DRAM image and the read-only constant pool.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::ir::MemSpace;

/// Error raised by a kernel memory access.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum MemError {
    /// Access outside the allocated space.
    OutOfBounds {
        space: MemSpace,
        addr: u32,
        len: u32,
        size: usize,
    },
    /// Write (or atomic) to read-only constant memory.
    ReadOnly { space: MemSpace },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds {
                space,
                addr,
                len,
                size,
            } => write!(
                f,
                "out-of-bounds {space:?} access at {addr:#x}+{len} (size {size})"
            ),
            MemError::ReadOnly { space } => write!(f, "write to read-only {space:?} memory"),
        }
    }
}

impl std::error::Error for MemError {}

/// The device's global (DRAM) address space: a flat, byte-addressable image.
///
/// # Example
///
/// ```
/// use rhythm_simt::mem::DeviceMemory;
///
/// let mut mem = DeviceMemory::new(64);
/// mem.write_word(0, 0xDEAD_BEEF).unwrap();
/// assert_eq!(mem.read_word(0).unwrap(), 0xDEAD_BEEF);
/// assert_eq!(mem.read_byte(0).unwrap(), 0xEF); // little endian
/// ```
///
/// An image can carry an open **undo journal** over one guarded span
/// ([`DeviceMemory::begin_journal`]): device-side stores into the span are
/// logged so a faulting run can be undone in time proportional to what it
/// wrote. The journal is bookkeeping, not content: an image clones with
/// it, but compares and serialises as its bytes alone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceMemory {
    bytes: Vec<u8>,
    #[serde(skip)]
    journal: Journal,
}

impl PartialEq for DeviceMemory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for DeviceMemory {}

/// The undo log of one guarded run: `(address, byte it held)` for every
/// byte stored inside `span`, in store order.
#[derive(Clone, Default, Debug)]
struct Journal {
    /// Guarded byte range; empty while no journal is open.
    span: Range<usize>,
    log: Vec<(u32, u8)>,
}

impl DeviceMemory {
    /// Allocate `size` zeroed bytes of global memory.
    pub fn new(size: usize) -> Self {
        DeviceMemory {
            bytes: vec![0; size],
            journal: Journal::default(),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the space has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes the allocation holds without growing (≥ [`Self::len`]).
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Re-cut the image to exactly `size` bytes: the first `keep` bytes
    /// survive, everything after them reads as zero. The allocation is
    /// reused, so a resident image whose tail is scratch can be re-cut per
    /// use at the cost of zeroing the tail — while [`Self::len`], and with
    /// it every out-of-bounds fault, is exactly that of a fresh
    /// `DeviceMemory::new(size)`.
    pub fn recut(&mut self, keep: usize, size: usize) {
        self.bytes.truncate(keep.min(size));
        self.bytes.resize(size, 0);
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let a = addr as usize;
        let end = a.checked_add(len as usize).ok_or(MemError::OutOfBounds {
            space: MemSpace::Global,
            addr,
            len,
            size: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(MemError::OutOfBounds {
                space: MemSpace::Global,
                addr,
                len,
                size: self.bytes.len(),
            });
        }
        Ok(a)
    }

    /// Read one byte (zero-extended).
    pub fn read_byte(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a] as u32)
    }

    /// Read a little-endian word.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ]))
    }

    /// [`Self::check`] for a host-side write. Host writes are not
    /// journaled, so none may land in the guarded span while a journal is
    /// open (rolling back would silently keep them).
    fn check_host_write(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let a = self.check(addr, len)?;
        debug_assert!(
            !touches(&self.journal.span, a, len as usize),
            "host write into the journaled span"
        );
        Ok(a)
    }

    /// Write one byte (low 8 bits of `value`).
    pub fn write_byte(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.check_host_write(addr, 1)?;
        self.bytes[a] = value as u8;
        Ok(())
    }

    /// Write a little-endian word.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.check_host_write(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Borrow a byte range.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the allocation.
    pub fn slice(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len as usize])
    }

    /// Mutably borrow a byte range.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the allocation.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], MemError> {
        let a = self.check_host_write(addr, len)?;
        Ok(&mut self.bytes[a..a + len as usize])
    }

    /// Copy a host byte slice into global memory at `addr`.
    pub fn load(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let a = self.check_host_write(addr, data.len() as u32)?;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Gather `len` bytes at `addr, addr + stride, addr + 2·stride, …`:
    /// one lane's buffer in a transposed layout (`stride` = the cohort
    /// width), or a plain copy at `stride == 1`. One bounds check covers
    /// the whole walk; strides up to 8 run as a loop whose stride is a
    /// compile-time constant, and 1 is one memcpy.
    ///
    /// # Errors
    ///
    /// Fails if the walk from `addr` to its last byte leaves the
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn read_strided(&self, addr: u32, stride: u32, len: u32) -> Result<Vec<u8>, MemError> {
        let span = strided_span(stride, len);
        let a = self.check(addr, span)?;
        Ok(gather(&self.bytes[a..a + span as usize], stride as usize))
    }

    /// Scatter `data` to `addr, addr + stride, addr + 2·stride, …`, the
    /// host-side twin of [`Self::read_strided`]: one bounds check, then the
    /// same fixed-stride walk (one `copy_from_slice` at `stride == 1`).
    ///
    /// # Errors
    ///
    /// Fails, with nothing written, if the walk leaves the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn write_strided(&mut self, addr: u32, stride: u32, data: &[u8]) -> Result<(), MemError> {
        let span = strided_span(stride, data.len() as u32);
        let a = self.check_host_write(addr, span)?;
        scatter(&mut self.bytes[a..a + span as usize], stride as usize, data);
        Ok(())
    }

    /// The full backing image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Open the undo journal over the `len` bytes at `addr`: until it is
    /// committed or rolled back, every store a [`DeviceView`] makes
    /// into the span first logs the byte it overwrites. The log starts
    /// empty; its buffer is kept from one journal to the next.
    ///
    /// Only views journal. Host-side writes ([`Self::load`],
    /// [`Self::slice_mut`], [`Self::write_byte`], [`Self::write_word`]) and
    /// [`Self::recut`] must stay out of the span while the journal is open.
    ///
    /// # Errors
    ///
    /// Fails if the span exceeds the allocation.
    ///
    /// # Panics
    ///
    /// Panics if a journal is already open.
    pub fn begin_journal(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        assert!(self.journal.span.is_empty(), "journal already open");
        let a = self.check(addr, len)?;
        self.journal.span = a..a + len as usize;
        self.journal.log.clear();
        Ok(())
    }

    /// Bytes logged since the last [`Self::begin_journal`]: exactly the
    /// bytes stored inside the span. Still readable after a commit, until
    /// the next journal opens.
    pub fn journal_len(&self) -> usize {
        self.journal.log.len()
    }

    /// Close the journal and keep what was stored.
    pub fn commit_journal(&mut self) {
        self.journal.span = 0..0;
    }

    /// Close the journal and undo every logged store, newest first, so the
    /// span holds what it held at [`Self::begin_journal`].
    pub fn rollback_journal(&mut self) {
        self.journal.span = 0..0;
        for (addr, old) in self.journal.log.drain(..).rev() {
            self.bytes[addr as usize] = old;
        }
    }

    /// The device's view of this image, held by a launch while its warps
    /// run: reads, and stores that the open journal logs.
    pub fn view(&mut self) -> DeviceView<'_> {
        DeviceView(self)
    }
}

/// Does the access `[a, a + len)` overlap `span`? One compare when the span
/// is empty (no journal) or lies wholly below the access.
#[inline]
fn touches(span: &Range<usize>, a: usize, len: usize) -> bool {
    a < span.end && a + len > span.start
}

/// Bytes from the first to the last of a `len`-byte walk at `stride`,
/// saturating, so a walk past the 32-bit address space fails its bounds
/// check.
fn strided_span(stride: u32, len: u32) -> u32 {
    match len {
        0 => 0,
        _ => (len - 1).saturating_mul(stride).saturating_add(1),
    }
}

/// The widest stride a lane walk ([`scatter`], [`gather`], and
/// [`DeviceView::store_strided`]'s lane-by-lane path) runs at a
/// compile-time constant. Strides 2–8 are the transposed layouts of the
/// cohorts a served time-out fills; there one lane's pass touches a
/// region that stays in cache, and its fixed-stride loop measured
/// 0.41–0.45 ns/B against 1.0–1.9 ns/B for the iteration-major row loop.
/// At 16–32 lanes each lane's pass streams the whole cohort region
/// through the cache once, and a lane walk measured 1.4–1.6 ns/B against
/// 0.8–0.9 ns/B for the row loop, so wider strides keep the row loop.
const LANE_WALK_MAX: u32 = 8;

/// `walk[t · n] = src[t]` for every `t`, where `walk` is exactly
/// `strided_span(n, src.len())` bytes. Strides 1 ..= [`LANE_WALK_MAX`] run
/// at a compile-time constant (1 is one `copy_from_slice`); any other
/// stride steps through `walk`.
fn scatter(walk: &mut [u8], n: usize, src: &[u8]) {
    match n {
        1 => walk.copy_from_slice(src),
        2 => scatter_n::<2>(walk, src),
        3 => scatter_n::<3>(walk, src),
        4 => scatter_n::<4>(walk, src),
        5 => scatter_n::<5>(walk, src),
        6 => scatter_n::<6>(walk, src),
        7 => scatter_n::<7>(walk, src),
        8 => scatter_n::<8>(walk, src),
        _ => walk
            .iter_mut()
            .step_by(n)
            .zip(src)
            .for_each(|(d, &b)| *d = b),
    }
}

/// [`scatter`] at `N ≥ 2`: a non-empty walk is `src.len() - 1` whole rows
/// of `N` bytes and a last partial row of one, which takes the last byte.
fn scatter_n<const N: usize>(walk: &mut [u8], src: &[u8]) {
    let (rows, last) = walk.as_chunks_mut::<N>();
    for (row, &b) in rows.iter_mut().zip(src) {
        row[0] = b;
    }
    if let (Some(d), Some(&b)) = (last.first_mut(), src.get(rows.len())) {
        *d = b;
    }
}

/// `out[t] = bytes[t · n]` for every `t`, where `bytes` is exactly
/// `strided_span(n, len)` bytes: the inverse of [`scatter`], dispatched the
/// same way (1 is one `to_vec`, a memcpy).
fn gather(bytes: &[u8], n: usize) -> Vec<u8> {
    match n {
        1 => bytes.to_vec(),
        2 => gather_n::<2>(bytes),
        3 => gather_n::<3>(bytes),
        4 => gather_n::<4>(bytes),
        5 => gather_n::<5>(bytes),
        6 => gather_n::<6>(bytes),
        7 => gather_n::<7>(bytes),
        8 => gather_n::<8>(bytes),
        _ => bytes.iter().step_by(n).copied().collect(),
    }
}

/// [`gather`] at `N ≥ 2`: the first byte of each whole row, then the last
/// partial row's one byte.
fn gather_n<const N: usize>(bytes: &[u8]) -> Vec<u8> {
    let (rows, last) = bytes.as_chunks::<N>();
    let mut out = Vec::with_capacity(rows.len() + last.len());
    out.extend(rows.iter().map(|row| row[0]));
    out.extend(last.first());
    out
}

/// A [`DeviceMemory`] image as the device sees it during a launch.
///
/// Warps run one after another on the caller's thread, so the view holds
/// the image's only borrow: a store is a plain byte store, and an
/// `atomic_add_word` is a read then a write that nothing can interleave.
///
/// While the image's undo journal is open
/// ([`DeviceMemory::begin_journal`]), a store that touches the guarded span
/// first logs the bytes it is about to overwrite, so log order is store
/// order and replaying the log newest-first restores the span exactly.
/// Stores outside the span pay one compare.
///
/// # Example
///
/// ```
/// use rhythm_simt::mem::DeviceMemory;
///
/// let mut mem = DeviceMemory::new(8);
/// let mut view = mem.view();
/// view.write_word(0, 41).unwrap();
/// assert_eq!(view.atomic_add_word(0, 1).unwrap(), 41);
/// assert_eq!(mem.read_word(0).unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct DeviceView<'a>(&'a mut DeviceMemory);

impl DeviceView<'_> {
    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the space has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read one byte (zero-extended).
    pub fn read_byte(&self, addr: u32) -> Result<u32, MemError> {
        self.0.read_byte(addr)
    }

    /// Read a little-endian word.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        self.0.read_word(addr)
    }

    /// Store `byte` at `a`, first logging the byte it replaces if `a` is
    /// guarded.
    #[inline]
    fn store_logged(&mut self, a: usize, byte: u8) {
        let DeviceMemory { bytes, journal } = &mut *self.0;
        if journal.span.contains(&a) {
            journal.log.push((a as u32, bytes[a]));
        }
        bytes[a] = byte;
    }

    /// Store `src` at `a..` (bounds already checked), logging what it
    /// overwrites if the range touches the guarded span.
    #[inline]
    fn store(&mut self, a: usize, src: &[u8]) {
        if touches(&self.0.journal.span, a, src.len()) {
            for (i, &b) in src.iter().enumerate() {
                self.store_logged(a + i, b);
            }
        } else {
            self.0.bytes[a..a + src.len()].copy_from_slice(src);
        }
    }

    /// Write one byte (low 8 bits of `value`).
    pub fn write_byte(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.0.check(addr, 1)?;
        self.store(a, &[value as u8]);
        Ok(())
    }

    /// Write a little-endian word.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.0.check(addr, 4)?;
        self.store(a, &value.to_le_bytes());
        Ok(())
    }

    /// Add `value` to the word at `addr`, returning the old value.
    pub fn atomic_add_word(&mut self, addr: u32, value: u32) -> Result<u32, MemError> {
        let old = self.read_word(addr)?;
        self.write_word(addr, old.wrapping_add(value))?;
        Ok(old)
    }

    /// Strided splat: for every `t`, store `src[t]` at `start + t * stride`
    /// for each `start` in `starts` — one byte-copy loop of a whole warp,
    /// where each lane walks its own buffer from its own position.
    ///
    /// The bytes left are those of iteration-major stores (all of
    /// iteration `t` before any of `t + 1`), the order lockstep execution
    /// gives them, so walks that overlap (`stride == 0`, or one walk
    /// running into another's range) end as per-byte execution leaves
    /// them. Within one iteration every store carries the same byte, so
    /// the order of `starts` cannot matter. When no two walks can share an
    /// address, order cannot matter at all, and each lane's walk is one
    /// loop at a compile-time constant stride. That holds when
    /// `stride == 1` and the ascending starts' spans are disjoint (one
    /// lane, or row-major slots: one `copy_from_slice` per lane), and when
    /// `2 <= stride <= 8` and the starts are distinct modulo `stride` (a
    /// transposed cohort of up to 8 lanes, whose lane `l` owns the
    /// addresses `≡ base + l`, in step or diverged). Every other splat —
    /// congruent starts, `stride == 0`, overrunning row-major slots, wider
    /// strides — stores iteration-major, row by row.
    ///
    /// The highest address of the whole operation is checked once, before
    /// the first store. A splat that reaches into the journal's span
    /// stores byte by byte, iteration-major, each store journaled as
    /// [`DeviceView::write_byte`] journals it.
    ///
    /// # Errors
    ///
    /// Fails, with nothing written, if any store would fall outside the
    /// allocation or past the 32-bit address space.
    pub fn store_strided(
        &mut self,
        starts: &[u32],
        stride: u32,
        src: &[u8],
    ) -> Result<(), MemError> {
        let (Some(&top), Some(last_t)) = (starts.iter().max(), src.len().checked_sub(1)) else {
            return Ok(());
        };
        let reach = last_t as u128 * stride as u128;
        let highest = top as u128 + reach;
        if highest > u32::MAX as u128 || highest >= self.len() as u128 {
            return Err(MemError::OutOfBounds {
                space: MemSpace::Global,
                addr: top,
                len: u32::try_from(reach + 1).unwrap_or(u32::MAX),
                size: self.len(),
            });
        }
        // The whole splat lies in `[lowest start, highest]`; only one that
        // reaches into the guarded span takes the journaled path.
        let guard = &self.0.journal.span;
        let journaled =
            highest as usize >= guard.start && starts.iter().any(|&s| (s as usize) < guard.end);
        // The lane walks return ahead of the byte loops: as one more arm
        // beside them a copy made the 2-lane byte loop measure 20–28 %
        // slower.
        if !journaled && disjoint_walks(starts, stride, src.len()) {
            let span = strided_span(stride, src.len() as u32) as usize;
            for &start in starts {
                let start = start as usize;
                scatter(&mut self.0.bytes[start..start + span], stride as usize, src);
            }
            return Ok(());
        }
        // In bounds by the check above: `t * stride <= reach`, and
        // `start <= top`, so no index passes `highest`.
        let rows = src
            .iter()
            .enumerate()
            .map(|(t, &byte)| (t * stride as usize, byte));
        if journaled {
            for (row, byte) in rows {
                for &start in starts {
                    self.store_logged(row + start as usize, byte);
                }
            }
        } else {
            for (row, byte) in rows {
                let row = &mut self.0.bytes[row..];
                for &start in starts {
                    row[start as usize] = byte;
                }
            }
        }
        Ok(())
    }
}

/// Can no two of the `len`-byte walks from ascending `starts` at `stride`
/// share an address, with the stride one a lane walk takes? At stride 1
/// the spans must not overlap; at 2 ..= [`LANE_WALK_MAX`] a walk only
/// meets addresses congruent to its start, so the starts must be distinct
/// modulo the stride (one bitmask pass).
fn disjoint_walks(starts: &[u32], stride: u32, len: usize) -> bool {
    match stride {
        1 => starts
            .windows(2)
            .all(|w| w[1].checked_sub(w[0]) >= Some(len as u32)),
        2..=LANE_WALK_MAX => {
            let mut seen = 0u64;
            starts.iter().all(|&s| {
                let bit = 1 << (s % stride);
                let fresh = seen & bit == 0;
                seen |= bit;
                fresh
            })
        }
        _ => false,
    }
}

/// Read-only constant memory holding interned template strings.
///
/// Kernels reference constant data by `(offset, len)` immediates; the pool
/// interns identical strings so shared HTML fragments are stored once,
/// mirroring CUDA `__constant__` usage in the paper's prototype.
///
/// # Example
///
/// ```
/// use rhythm_simt::mem::ConstPool;
///
/// let mut pool = ConstPool::new();
/// let (off, len) = pool.intern_str("<html>");
/// assert_eq!(len, 6);
/// let again = pool.intern_str("<html>");
/// assert_eq!((off, len), again, "identical strings are interned once");
/// ```
#[derive(Clone, Default, Debug)]
pub struct ConstPool {
    data: Vec<u8>,
    interned: HashMap<Vec<u8>, u32>,
}

impl ConstPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a byte string, returning `(offset, len)`.
    pub fn intern(&mut self, bytes: &[u8]) -> (u32, u32) {
        if let Some(&off) = self.interned.get(bytes) {
            return (off, bytes.len() as u32);
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.interned.insert(bytes.to_vec(), off);
        (off, bytes.len() as u32)
    }

    /// Intern a UTF-8 string, returning `(offset, len)`.
    pub fn intern_str(&mut self, s: &str) -> (u32, u32) {
        self.intern(s.as_bytes())
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is outside the pool.
    pub fn read_byte(&self, addr: u32) -> Result<u32, MemError> {
        self.data
            .get(addr as usize)
            .map(|&b| b as u32)
            .ok_or(MemError::OutOfBounds {
                space: MemSpace::Const,
                addr,
                len: 1,
                size: self.data.len(),
            })
    }

    /// Read a little-endian word.
    ///
    /// # Errors
    ///
    /// Fails if the word exceeds the pool.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        let a = addr as usize;
        if a + 4 > self.data.len() {
            return Err(MemError::OutOfBounds {
                space: MemSpace::Const,
                addr,
                len: 4,
                size: self.data.len(),
            });
        }
        Ok(u32::from_le_bytes([
            self.data[a],
            self.data[a + 1],
            self.data[a + 2],
            self.data[a + 3],
        ]))
    }

    /// Total pool size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw pool image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        let mut m = DeviceMemory::new(8);
        m.write_byte(3, 0x1FF).unwrap();
        assert_eq!(m.read_byte(3).unwrap(), 0xFF, "stores low 8 bits");
    }

    #[test]
    fn word_little_endian() {
        let mut m = DeviceMemory::new(8);
        m.write_word(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_byte(0).unwrap(), 4);
        assert_eq!(m.read_byte(3).unwrap(), 1);
    }

    #[test]
    fn out_of_bounds_read() {
        let m = DeviceMemory::new(4);
        assert!(m.read_word(1).is_err());
        assert!(m.read_byte(4).is_err());
        assert!(m.read_byte(3).is_ok());
    }

    #[test]
    fn overflow_address_rejected() {
        let m = DeviceMemory::new(4);
        assert!(m.read_word(u32::MAX).is_err());
    }

    #[test]
    fn recut_keeps_head_zeroes_tail_reuses_allocation() {
        let mut m = DeviceMemory::new(64);
        m.load(0, b"head").unwrap();
        m.load(32, b"scratch").unwrap();
        let cap = m.capacity();
        m.recut(8, 40);
        assert_eq!(m.len(), 40);
        assert_eq!(m.slice(0, 4).unwrap(), b"head");
        assert!(m.slice(8, 32).unwrap().iter().all(|&b| b == 0));
        assert!(m.read_byte(40).is_err(), "extent is exact");
        assert_eq!(m.capacity(), cap);
        m.recut(8, 64);
        assert_eq!(m, {
            let mut fresh = DeviceMemory::new(64);
            fresh.load(0, b"head").unwrap();
            fresh
        });
    }

    #[test]
    fn load_and_slice() {
        let mut m = DeviceMemory::new(16);
        m.load(4, b"abcd").unwrap();
        assert_eq!(m.slice(4, 4).unwrap(), b"abcd");
        assert!(m.load(14, b"xyz").is_err());
    }

    #[test]
    fn const_pool_interning() {
        let mut p = ConstPool::new();
        let (o1, l1) = p.intern_str("hello");
        let (o2, _) = p.intern_str("world");
        let (o3, l3) = p.intern_str("hello");
        assert_eq!(o1, o3);
        assert_eq!(l1, l3);
        assert_ne!(o1, o2);
        assert_eq!(p.len(), 10);
        assert_eq!(p.read_byte(o2).unwrap(), b'w' as u32);
    }

    #[test]
    fn const_pool_word_read() {
        let mut p = ConstPool::new();
        let (off, _) = p.intern(&[1, 0, 0, 0]);
        assert_eq!(p.read_word(off).unwrap(), 1);
        assert!(p.read_word(1).is_err());
    }

    #[test]
    fn view_roundtrip_and_bounds() {
        let mut m = DeviceMemory::new(8);
        {
            let mut v = m.view();
            v.write_word(0, 0x0102_0304).unwrap();
            assert_eq!(v.read_word(0).unwrap(), 0x0102_0304);
            assert_eq!(v.read_byte(3).unwrap(), 1);
            assert!(v.read_word(5).is_err());
            assert!(v.write_byte(8, 1).is_err());
            assert_eq!(v.len(), 8);
            assert!(!v.is_empty());
        }
        assert_eq!(
            m.read_word(0).unwrap(),
            0x0102_0304,
            "writes land in the image"
        );
    }

    /// `store_strided` against per-byte stores issued in lockstep order:
    /// every loop shape it picks — transposed warps of 1–9 and 32 lanes in
    /// step, with cursors diverged (as after a `Rows` table) and with part
    /// of the warp masked off, row-major slots — and the layouts where
    /// order decides the result: stride 0 (each walk rewrites one address),
    /// in-step rows that overlap, walks congruent modulo the stride (which
    /// must keep the iteration-major row loop), and a walk overrunning into
    /// its neighbour's range. The in-step warps also run under an open
    /// journal, which logs every byte it overwrites. Each case stores
    /// fragments of 0, 1, 11, 16 and 16 758 bytes (the filler after a
    /// `Rows` table), none two adjacent bytes alike, so a walk that drops
    /// or reorders a store shows.
    #[test]
    fn store_strided_matches_lockstep_byte_stores() {
        let mut cases = vec![
            (vec![0u32, 1, 2], 3u32, false),     // interleaved walks
            (vec![0, 16, 32], 1, false),         // disjoint contiguous walks
            (vec![5, 9, 2], 0, false),           // stride 0: last byte wins
            (vec![3, 4, 5, 6], 0, false),        // stride 0, in step
            (vec![0, 1, 2, 3, 4], 2, false),     // in-step rows overlapping
            (vec![12, 8, 0], 1, false),          // overlapping walks, unsorted starts
            (vec![0, 4, 7], 1, false),           // row-major slots overrun
            (vec![40, 300, 560, 820], 1, false), // row-major slots
        ];
        for n in (1u32..=9).chain([32]) {
            let in_step: Vec<u32> = (0..n).map(|l| 64 + 5 * n + l).collect();
            // Lane `l` at position `(7 * l) % 11` of its transposed slot.
            let diverged: Vec<u32> = (0..n).map(|l| 64 + l + (7 * l) % 11 * n).collect();
            // Every other lane live, diverged.
            let masked: Vec<u32> = diverged.iter().copied().step_by(2).collect();
            // Walks `3 n` apart share every address after the first three.
            let congruent = vec![64, 64 + n, 64 + 3 * n, 64 + 3 * n + 1];
            cases.push((in_step.clone(), n, false));
            cases.push((diverged, n, false));
            cases.push((masked, n, false));
            cases.push((congruent, n, false));
            cases.push((in_step, n, true));
        }
        for len in [0usize, 1, 11, 16, 16_758] {
            let src: Vec<u8> = (0..len).map(|t| (t % 251) as u8).collect();
            for (starts, stride, journaled) in &cases {
                let (starts, stride) = (starts.as_slice(), *stride);
                let what =
                    format!("starts {starts:?} stride {stride} len {len} journaled {journaled}");
                let top = starts.iter().max().map_or(0, |&s| s as usize);
                let size = top + len * stride.max(1) as usize + 1;
                let mut fast = DeviceMemory::new(size);
                let before = fast.clone();
                if *journaled {
                    fast.begin_journal(0, size as u32).unwrap();
                }
                fast.view().store_strided(starts, stride, &src).unwrap();
                let mut slow = DeviceMemory::new(size);
                for (t, &b) in src.iter().enumerate() {
                    for &s in starts {
                        slow.write_byte(s + t as u32 * stride, b as u32).unwrap();
                    }
                }
                assert!(fast.as_bytes() == slow.as_bytes(), "{what}");
                if *journaled {
                    assert_eq!(fast.journal_len(), starts.len() * len, "{what}");
                    fast.rollback_journal();
                    assert!(fast == before, "{what}: rolled back");
                }
            }
        }
    }

    #[test]
    fn store_strided_checks_bounds_before_storing() {
        let mut m = DeviceMemory::new(16);
        let mut v = m.view();
        // The second walk's last store lands at 9 + 7 = 16: one past.
        assert!(v.store_strided(&[0, 9], 1, b"abcdefgh").is_err());
        assert!(v.store_strided(&[0], u32::MAX, b"ab").is_err(), "no wrap");
        assert!(v.store_strided(&[], 1, b"ab").is_ok());
        assert!(v.store_strided(&[99], 1, b"").is_ok(), "nothing to store");
        assert!(m.as_bytes().iter().all(|&b| b == 0), "nothing was written");
        m.view().store_strided(&[0, 8], 1, b"abcdefgh").unwrap();
        assert_eq!(m.as_bytes(), b"abcdefghabcdefgh");
    }

    /// One store of the journal tests' random programs.
    #[derive(Copy, Clone, Debug)]
    enum Store {
        Byte(u32, u32),
        Word(u32, u32),
        Add(u32, u32),
        Strided([u32; 3], u32, [u8; 5]),
    }

    impl Store {
        fn apply(self, v: &mut DeviceView<'_>) {
            match self {
                Store::Byte(a, x) => v.write_byte(a, x).unwrap(),
                Store::Word(a, x) => v.write_word(a, x).unwrap(),
                Store::Add(a, x) => drop(v.atomic_add_word(a, x).unwrap()),
                Store::Strided(starts, stride, src) => {
                    v.store_strided(&starts, stride, &src).unwrap()
                }
            }
        }

        /// Every byte address the store writes, once per write.
        fn addresses(self) -> Vec<u32> {
            match self {
                Store::Byte(a, _) => vec![a],
                Store::Word(a, _) | Store::Add(a, _) => (a..a + 4).collect(),
                Store::Strided(starts, stride, src) => (0..src.len() as u32)
                    .flat_map(|t| starts.map(|s| s + t * stride))
                    .collect(),
            }
        }
    }

    const IMAGE: usize = 256;
    /// Guarded span of the journal tests: `[SPAN, SPAN + SPAN_LEN)`.
    const SPAN: u32 = 96;
    const SPAN_LEN: u32 = 64;

    /// A random image and a random store sequence over it: addresses are
    /// uniform over the image, so stores fall inside, outside and across
    /// both edges of the span.
    fn random_program(seed: u64) -> (DeviceMemory, Vec<Store>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut image = DeviceMemory::new(IMAGE);
        for b in image.bytes.iter_mut() {
            *b = rng.gen();
        }
        let stores = (0..200)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => Store::Byte(rng.gen_range(0..IMAGE as u32), rng.gen()),
                1 => Store::Word(rng.gen_range(0..IMAGE as u32 - 3), rng.gen()),
                2 => Store::Add(rng.gen_range(0..IMAGE as u32 - 3), rng.gen()),
                _ => {
                    let stride = rng.gen_range(0..8u32);
                    let top = IMAGE as u32 - 4 * stride;
                    Store::Strided(
                        [(); 3].map(|_| rng.gen_range(0..top)),
                        stride,
                        [(); 5].map(|_| rng.gen()),
                    )
                }
            })
            .collect();
        (image, stores)
    }

    #[test]
    fn journal_rollback_restores_commit_keeps_and_only_the_span_is_logged() {
        for seed in 0..20 {
            let (original, stores) = random_program(seed);
            let inside = stores
                .iter()
                .flat_map(|s| s.addresses())
                .filter(|a| (SPAN..SPAN + SPAN_LEN).contains(a))
                .count();
            assert!(inside > 0, "seed {seed}: nothing stored inside the span");

            let mut plain = original.clone();
            let mut view = plain.view();
            stores.iter().for_each(|s| s.apply(&mut view));

            let mut journaled = original.clone();
            journaled.begin_journal(SPAN, SPAN_LEN).unwrap();
            // One view per store: the log carries over from launch to launch.
            for s in &stores {
                s.apply(&mut journaled.view());
            }
            assert_eq!(journaled, plain, "seed {seed}: journaling changed a store");
            assert_eq!(journaled.journal_len(), inside, "seed {seed}: log length");

            let mut kept = journaled.clone();
            kept.commit_journal();
            assert_eq!(kept, plain, "seed {seed}: commit");

            journaled.rollback_journal();
            let (span, all) = (SPAN as usize..(SPAN + SPAN_LEN) as usize, 0..IMAGE);
            assert_eq!(
                journaled.bytes[span.clone()],
                original.bytes[span.clone()],
                "seed {seed}: rollback restores the span byte for byte"
            );
            for outside in [all.start..span.start, span.end..all.end] {
                assert_eq!(
                    journaled.bytes[outside.clone()],
                    plain.bytes[outside],
                    "seed {seed}: stores outside the span are not undone"
                );
            }
        }
    }

    /// Sweeps over the same guarded words, one after another, mixing
    /// atomics and plain stores (the last word crosses the span's edge):
    /// rollback puts every guarded byte back, whichever sweep stored to a
    /// word first. A fresh journal per round, over many words.
    #[test]
    fn journal_rollback_is_exact_over_repeated_sweeps() {
        for sweeps in [1u32, 2, 4] {
            let (original, _) = random_program(u64::from(sweeps));
            let mut m = original.clone();
            let span = SPAN as usize..(SPAN + SPAN_LEN) as usize;
            for round in 0..500u32 {
                m.begin_journal(SPAN, SPAN_LEN).unwrap();
                let mut view = m.view();
                for w in 0..sweeps {
                    for word in (SPAN + 2..SPAN + SPAN_LEN).step_by(4) {
                        let x = round ^ word ^ w;
                        match (word / 4 + w + round) % 3 {
                            0 => drop(view.atomic_add_word(word, x | 1).unwrap()),
                            1 => view.write_word(word, !x).unwrap(),
                            _ => view.write_byte(word + 1, !x).unwrap(),
                        }
                    }
                }
                assert!(m.journal_len() > 0);
                m.rollback_journal();
                assert_eq!(
                    m.bytes[span.clone()],
                    original.bytes[span.clone()],
                    "{sweeps} sweeps, round {round}: guarded bytes after rollback"
                );
            }
        }
    }

    #[test]
    fn open_journal_is_not_part_of_the_image() {
        let mut plain = DeviceMemory::new(16);
        plain.view().write_word(4, 0xAABB_CCDD).unwrap();
        let mut open = DeviceMemory::new(16);
        open.begin_journal(0, 8).unwrap();
        open.view().write_word(4, 0xAABB_CCDD).unwrap();
        assert_eq!(open.journal_len(), 4);
        assert_eq!(open, plain, "compares as its bytes");
        let mut copy = open.clone();
        assert_eq!(copy, open);
        assert_eq!(copy.as_bytes(), plain.as_bytes());
        copy.rollback_journal();
        assert_eq!(copy, DeviceMemory::new(16), "the clone carries the journal");
        let mut small = DeviceMemory::new(16);
        assert!(small.begin_journal(8, 9).is_err(), "span is bounds-checked");
    }

    #[test]
    fn error_display() {
        let e = MemError::ReadOnly {
            space: MemSpace::Const,
        };
        assert!(e.to_string().contains("read-only"));
    }
}
