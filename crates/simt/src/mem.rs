//! Device memory: global DRAM image and the read-only constant pool.

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
    /// A host borrow or block copy of a range that overlaps the image's
    /// lane-major region ([`DeviceMemory::recut`]), whose host order is
    /// not device order.
    LaneMajor { addr: u32, len: u32 },
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
            MemError::LaneMajor { addr, len } => write!(
                f,
                "host borrow of {addr:#x}+{len} overlaps the lane-major region"
            ),
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
/// it, but compares as its bytes alone.
///
/// An image can also keep one span **lane-major** on the host
/// ([`LaneMajor`], declared by [`DeviceMemory::recut`]): the response
/// buffer of a transposed cohort, where the device's byte `e` of lane `l`
/// sits at `base + e·lanes + l` but the host stores it at
/// `base + l·slot + e`, so that one lane's whole buffer is one contiguous
/// run. Every accessor that takes a device address maps it (one range
/// compare for addresses outside the span), so kernels, faults and the
/// journal see device order; only [`DeviceMemory::as_bytes`] shows host
/// order, and [`DeviceMemory::slice`], [`DeviceMemory::slice_mut`] and
/// [`DeviceMemory::load`] refuse a range that overlaps the span.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    bytes: Vec<u8>,
    journal: Journal,
    region: Region,
}

impl PartialEq for DeviceMemory {
    /// Equal device images: the same bytes at every device address,
    /// whichever span each keeps lane-major.
    fn eq(&self, other: &Self) -> bool {
        if self.region == other.region {
            return self.bytes == other.bytes;
        }
        self.len() == other.len()
            && (0..self.len())
                .all(|a| self.bytes[self.region.host(a)] == other.bytes[other.region.host(a)])
    }
}

impl Eq for DeviceMemory {}

/// The undo log of one guarded run: `(host index, byte it held)` for every
/// byte stored inside `span` (device addresses), in store order.
#[derive(Clone, Default, Debug)]
struct Journal {
    /// Guarded byte range; empty while no journal is open.
    span: Range<usize>,
    log: Vec<(u32, u8)>,
}

/// A span of `lanes · slot` device bytes from `base` that the host keeps
/// lane-major: the transposed buffer whose lane `l` owns the device bytes
/// `base + e·lanes + l` for `e < slot`, stored as lane `l`'s `slot` bytes
/// from host offset `base + l·slot`. Device and host span cover the same
/// byte range, so bounds, lengths and everything outside it agree.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LaneMajor {
    /// First device (and host) address of the span.
    pub base: u32,
    /// Lanes interleaved in device order: the span's element stride.
    pub lanes: u32,
    /// Bytes per lane.
    pub slot: u32,
}

/// The image's [`LaneMajor`] span in the form the accessors test and map:
/// `len == 0` when there is none, which no address falls inside.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Region {
    base: usize,
    len: usize,
    lanes: u32,
    slot: u32,
}

impl Region {
    const NONE: Region = Region {
        base: usize::MAX,
        len: 0,
        lanes: 1,
        slot: 0,
    };

    fn of(lm: LaneMajor) -> Region {
        Region {
            base: lm.base as usize,
            len: lm.lanes as usize * lm.slot as usize,
            lanes: lm.lanes,
            slot: lm.slot,
        }
    }

    /// The host index of device address `a`: itself outside the span.
    #[inline(always)]
    fn host(&self, a: usize) -> usize {
        let off = a.wrapping_sub(self.base);
        if off < self.len {
            // `off < len <= u32::MAX` (a 32-bit device span): 32-bit
            // division.
            let off = off as u32;
            self.base
                + (off % self.lanes) as usize * self.slot as usize
                + (off / self.lanes) as usize
        } else {
            a
        }
    }

    /// Does the access `[a, a + len)` overlap the span?
    #[inline(always)]
    fn touches(&self, a: usize, len: usize) -> bool {
        a < self.base + self.len && a + len > self.base
    }

    /// The host index of a `len`-byte walk from device address `a` at
    /// `stride` if the walk stays inside one lane's slot (then its bytes
    /// are one contiguous host run): `stride` is the lane count, or the
    /// walk is at most one byte.
    #[inline]
    fn lane_run(&self, a: usize, stride: u32, len: usize) -> Option<usize> {
        let off = a.checked_sub(self.base).filter(|&off| off < self.len)? as u32;
        let first = (off / self.lanes) as usize;
        let fits = first + len <= self.slot as usize;
        (fits && (stride == self.lanes || len <= 1)).then(|| self.host(a))
    }
}

impl DeviceMemory {
    /// Allocate `size` zeroed bytes of global memory.
    pub fn new(size: usize) -> Self {
        DeviceMemory {
            bytes: vec![0; size],
            journal: Journal::default(),
            region: Region::NONE,
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
    /// survive, everything after them reads as zero. Within the
    /// allocation's capacity the allocation is reused, so a resident image
    /// whose tail is scratch can be re-cut per use at the cost of zeroing
    /// the tail; past it the head moves into a fresh zeroed allocation,
    /// whose zero pages cost no fill, with room to grow into so a context
    /// stepping up through cut sizes moves its head once per doubling.
    /// Either way [`Self::len`], and with it every out-of-bounds fault, is
    /// exactly that of a fresh `DeviceMemory::new(size)`.
    ///
    /// The image then keeps `lane_major`'s span, if any, lane-major (and
    /// no other). The span lies in the zeroed tail, so declaring it moves
    /// no byte; a previous span that reached into the kept head is put
    /// back in device order first.
    ///
    /// # Panics
    ///
    /// Panics if `lane_major` starts below `keep` or ends past `size`.
    pub fn recut(&mut self, keep: usize, size: usize, lane_major: Option<LaneMajor>) {
        let old = std::mem::replace(&mut self.region, Region::NONE);
        if old.base < keep && old.len > 0 {
            let device: Vec<u8> = (old.base..old.base + old.len)
                .map(|a| self.bytes[old.host(a)])
                .collect();
            self.bytes[old.base..old.base + old.len].copy_from_slice(&device);
        }
        let head = keep.min(size).min(self.bytes.len());
        if size > self.bytes.capacity() {
            let mut grown = vec![0; size.max(2 * self.bytes.capacity())];
            grown[..head].copy_from_slice(&self.bytes[..head]);
            grown.truncate(size);
            self.bytes = grown;
        } else {
            self.bytes.truncate(head);
            self.bytes.resize(size, 0);
        }
        if let Some(lm) = lane_major {
            let region = Region::of(lm);
            assert!(
                region.base >= keep && region.base + region.len <= size,
                "lane-major span must lie in the re-cut tail"
            );
            self.region = region;
        }
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

    /// [`Self::check`] for a host borrow or block copy, which sees host
    /// order: refused if it overlaps the lane-major span.
    fn check_host_order(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let a = self.check(addr, len)?;
        if self.region.touches(a, len as usize) {
            return Err(MemError::LaneMajor { addr, len });
        }
        Ok(a)
    }

    /// The byte at device address `a` (bounds already checked).
    #[inline(always)]
    fn byte(&self, a: usize) -> u8 {
        self.bytes[self.region.host(a)]
    }

    /// Read one byte (zero-extended).
    pub fn read_byte(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 1)?;
        Ok(self.byte(a) as u32)
    }

    /// Read a little-endian word.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 4)?;
        if self.region.touches(a, 4) {
            return Ok(u32::from_le_bytes(std::array::from_fn(|i| {
                self.byte(a + i)
            })));
        }
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
        let h = self.region.host(a);
        self.bytes[h] = value as u8;
        Ok(())
    }

    /// Write a little-endian word.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.check_host_write(addr, 4)?;
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            let h = self.region.host(a + i);
            self.bytes[h] = b;
        }
        Ok(())
    }

    /// Borrow a byte range.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the allocation or overlaps the
    /// lane-major span.
    pub fn slice(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let a = self.check_host_order(addr, len)?;
        Ok(&self.bytes[a..a + len as usize])
    }

    /// Mutably borrow a byte range.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the allocation or overlaps the
    /// lane-major span.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], MemError> {
        self.check_host_order(addr, len)?;
        let a = self.check_host_write(addr, len)?;
        Ok(&mut self.bytes[a..a + len as usize])
    }

    /// Copy a host byte slice into global memory at `addr`.
    ///
    /// # Errors
    ///
    /// Fails, with nothing written, if the range exceeds the allocation or
    /// overlaps the lane-major span.
    pub fn load(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, data.len() as u32)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Gather `len` bytes at `addr, addr + stride, addr + 2·stride, …`:
    /// one lane's buffer in a transposed layout (`stride` = the cohort
    /// width), or a plain copy at `stride == 1`. One bounds check covers
    /// the whole walk. Inside the lane-major span a walk that stays in one
    /// lane's slot is one `to_vec` of its host run, and any other walk
    /// maps byte by byte; elsewhere strides up to 8 run as a loop whose
    /// stride is a compile-time constant, and 1 is one memcpy.
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
        let len = len as usize;
        if self.region.touches(a, span as usize) {
            return Ok(match self.region.lane_run(a, stride, len) {
                Some(h) => self.bytes[h..h + len].to_vec(),
                None => (0..len)
                    .map(|t| self.byte(a + t * stride as usize))
                    .collect(),
            });
        }
        Ok(gather(&self.bytes[a..a + span as usize], stride as usize))
    }

    /// Scatter `data` to `addr, addr + stride, addr + 2·stride, …`, the
    /// host-side twin of [`Self::read_strided`]: one bounds check, then the
    /// same walk (one `copy_from_slice` at `stride == 1`, or for a lane
    /// run in the lane-major span).
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
        if self.region.touches(a, span as usize) {
            match self.region.lane_run(a, stride, data.len()) {
                Some(h) => self.bytes[h..h + data.len()].copy_from_slice(data),
                None => {
                    for (t, &b) in data.iter().enumerate() {
                        let h = self.region.host(a + t * stride as usize);
                        self.bytes[h] = b;
                    }
                }
            }
            return Ok(());
        }
        scatter(&mut self.bytes[a..a + span as usize], stride as usize, data);
        Ok(())
    }

    /// The full backing image, in host order: a lane-major span shows as
    /// its lanes one after another, not as the device sees it.
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
        for (h, old) in self.journal.log.drain(..).rev() {
            self.bytes[h as usize] = old;
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

/// `walk[t · n] = src[t]` for every `t`, where `walk` is exactly
/// `strided_span(n, src.len())` bytes: one `copy_from_slice` at stride 1,
/// else a step through `walk`.
fn scatter(walk: &mut [u8], n: usize, src: &[u8]) {
    match n {
        1 => walk.copy_from_slice(src),
        _ => walk
            .iter_mut()
            .step_by(n)
            .zip(src)
            .for_each(|(d, &b)| *d = b),
    }
}

/// `out[t] = bytes[t · n]` for every `t`, where `bytes` is exactly
/// `strided_span(n, len)` bytes: the inverse of [`scatter`] (1 is one
/// `to_vec`, a memcpy).
fn gather(bytes: &[u8], n: usize) -> Vec<u8> {
    match n {
        1 => bytes.to_vec(),
        _ => bytes.iter().step_by(n).copied().collect(),
    }
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

    /// Store `byte` at device address `a`, first logging the byte it
    /// replaces if `a` is guarded.
    #[inline]
    fn store_logged(&mut self, a: usize, byte: u8) {
        let DeviceMemory {
            bytes,
            journal,
            region,
        } = &mut *self.0;
        let h = region.host(a);
        if journal.span.contains(&a) {
            journal.log.push((h as u32, bytes[h]));
        }
        bytes[h] = byte;
    }

    /// Store `src` at `a..` (bounds already checked), logging what it
    /// overwrites if the range touches the guarded span, mapping each byte
    /// if it touches the lane-major span.
    #[inline]
    fn store(&mut self, a: usize, src: &[u8]) {
        if touches(&self.0.journal.span, a, src.len()) || self.0.region.touches(a, src.len()) {
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
    /// copy:
    ///
    /// - in the lane-major span, when every walk steps at the span's lane
    ///   count, stays inside its lane's slot, and no two walks are in the
    ///   same lane (a transposed cohort's wide copy, in step or diverged):
    ///   one `copy_from_slice` per lane into its host run;
    /// - elsewhere, when `stride == 1` and the ascending starts' spans are
    ///   disjoint (one lane, or row-major slots): one `copy_from_slice` per
    ///   lane.
    ///
    /// Every other splat — `stride == 0`, walks that overlap or overrun a
    /// slot, any wider stride outside the span — stores iteration-major,
    /// row by row (mapped byte by byte where it reaches into the
    /// lane-major span).
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
        let region = self.0.region;
        if highest as usize >= region.base
            && starts
                .iter()
                .any(|&s| (s as usize) < region.base + region.len)
        {
            self.store_mapped(starts, stride, src, journaled);
            return Ok(());
        }
        // The copies return ahead of the byte loops: as one more arm
        // beside them a copy made the 2-lane byte loop measure 20–28 %
        // slower.
        if !journaled && disjoint_walks(starts, stride, src.len()) {
            for &start in starts {
                let start = start as usize;
                self.0.bytes[start..start + src.len()].copy_from_slice(src);
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

    /// [`Self::store_strided`] for a splat (bounds already checked) that
    /// reaches into the lane-major span: one `copy_from_slice` per walk
    /// when [`lane_runs`] holds and no journal is open, else mapped byte
    /// stores, iteration-major, journaled where guarded.
    fn store_mapped(&mut self, starts: &[u32], stride: u32, src: &[u8], journaled: bool) {
        let region = self.0.region;
        if !journaled && lane_runs(&region, starts, stride, src.len()) {
            for &start in starts {
                let h = region.host(start as usize);
                self.0.bytes[h..h + src.len()].copy_from_slice(src);
            }
            return;
        }
        for (t, &byte) in src.iter().enumerate() {
            let row = t * stride as usize;
            for &start in starts {
                self.store_logged(row + start as usize, byte);
            }
        }
    }
}

/// Is every `len`-byte walk from `starts` at `stride` a lane run of
/// `region` ([`Region::lane_run`]) in a lane of its own, so that no two
/// walks share an address? Lanes are told apart modulo 128 in one bitmask
/// (a warp's lanes are consecutive), so two walks 128 lanes apart take the
/// byte loop.
fn lane_runs(region: &Region, starts: &[u32], stride: u32, len: usize) -> bool {
    let mut seen = 0u128;
    starts.iter().all(|&start| {
        let a = start as usize;
        if region.lane_run(a, stride, len).is_none() {
            return false;
        }
        let bit = 1u128 << ((a - region.base) as u32 % region.lanes % 128);
        let fresh = seen & bit == 0;
        seen |= bit;
        fresh
    })
}

/// Is every `len`-byte walk from ascending `starts` at `stride` a run of
/// consecutive bytes (`stride == 1`) that no other walk overlaps, so each
/// is one copy?
fn disjoint_walks(starts: &[u32], stride: u32, len: usize) -> bool {
    stride == 1
        && starts
            .windows(2)
            .all(|w| w[1].checked_sub(w[0]) >= Some(len as u32))
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
        m.recut(8, 40, None);
        assert_eq!(m.len(), 40);
        assert_eq!(m.slice(0, 4).unwrap(), b"head");
        assert!(m.slice(8, 32).unwrap().iter().all(|&b| b == 0));
        assert!(m.read_byte(40).is_err(), "extent is exact");
        assert_eq!(m.capacity(), cap);
        m.recut(8, 64, None);
        assert_eq!(m, {
            let mut fresh = DeviceMemory::new(64);
            fresh.load(0, b"head").unwrap();
            fresh
        });
    }

    /// Re-cut after a cohort wrote every byte of the old tail, to a larger
    /// cut (past the allocation), an equal and a smaller one: each image is
    /// the fresh one of its size with the same head loaded.
    #[test]
    fn recut_past_the_allocation_matches_a_fresh_image() {
        const HEAD: usize = 24;
        let lm = LaneMajor {
            base: 32,
            lanes: 4,
            slot: 8,
        };
        let mut m = DeviceMemory::new(HEAD);
        m.load(0, &[0xA5; HEAD]).unwrap();
        let mut cap = m.capacity();
        for size in [96, 4096, 4096, 72] {
            m.recut(HEAD, size, Some(lm));
            let mut fresh = DeviceMemory::new(size);
            fresh.load(0, &[0xA5; HEAD]).unwrap();
            assert_eq!(m, fresh, "re-cut to {size} bytes");
            assert_eq!(m.as_bytes()[HEAD..], fresh.as_bytes()[HEAD..]);
            assert!(m.capacity() >= size.max(cap), "capacity never shrinks");
            cap = m.capacity();
            for a in HEAD..size {
                m.write_byte(a as u32, 0xFF).unwrap();
            }
        }
        m.recut(HEAD, cap + 1, None);
        assert!(m.capacity() >= 2 * cap, "growth is amortised");
        let mut short = DeviceMemory::new(8);
        short.recut(16, 4096, None);
        assert_eq!(
            short,
            DeviceMemory::new(4096),
            "a head past the image is zero"
        );
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
    /// share addresses), and a walk overrunning into its neighbour's
    /// range. The in-step warps also run under an open journal, which
    /// logs every byte it overwrites. Each case stores
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

    /// Where the equivalence tests' lane-major span starts, and the device
    /// bytes after it: accesses straddle both edges.
    const LM_BASE: u32 = 16;
    const LM_TAIL: u32 = 16;

    /// One access of the equivalence tests, applied alike to a
    /// device-ordered image and a lane-major one.
    #[derive(Clone, Debug)]
    enum Access {
        Byte(u32),
        Word(u32),
        HostByte(u32, u32),
        HostWord(u32, u32),
        ViewByte(u32, u32),
        ViewWord(u32, u32),
        Add(u32, u32),
        Read(u32, u32, u32),
        Write(u32, u32, Vec<u8>),
        Splat(Vec<u32>, u32, Vec<u8>),
    }

    impl Access {
        /// Run the access; what it read (or nothing), or its error.
        fn apply(&self, m: &mut DeviceMemory) -> Result<Vec<u32>, MemError> {
            Ok(match self {
                Access::Byte(a) => vec![m.read_byte(*a)?, m.view().read_byte(*a)?],
                Access::Word(a) => vec![m.read_word(*a)?, m.view().read_word(*a)?],
                Access::HostByte(a, x) => m.write_byte(*a, *x).map(|()| vec![])?,
                Access::HostWord(a, x) => m.write_word(*a, *x).map(|()| vec![])?,
                Access::ViewByte(a, x) => m.view().write_byte(*a, *x).map(|()| vec![])?,
                Access::ViewWord(a, x) => m.view().write_word(*a, *x).map(|()| vec![])?,
                Access::Add(a, x) => vec![m.view().atomic_add_word(*a, *x)?],
                Access::Read(a, stride, len) => m
                    .read_strided(*a, *stride, *len)?
                    .into_iter()
                    .map(u32::from)
                    .collect(),
                Access::Write(a, stride, data) => {
                    m.write_strided(*a, *stride, data).map(|()| vec![])?
                }
                Access::Splat(starts, stride, src) => m
                    .view()
                    .store_strided(starts, *stride, src)
                    .map(|()| vec![])?,
            })
        }

        /// A device store (what may run while a journal is open).
        fn is_view_store(&self) -> bool {
            matches!(
                self,
                Access::ViewByte(..) | Access::ViewWord(..) | Access::Add(..) | Access::Splat(..)
            )
        }
    }

    /// A random access over an image with `lm` at [`LM_BASE`]: addresses
    /// anywhere (past the end included), at both span edges, or at a
    /// lane's element; walks at the lane count (lane runs, in step,
    /// diverged, congruent, and ones that overrun a slot or leave the
    /// span) and at other strides.
    fn random_access(lm: LaneMajor, rng: &mut rand::rngs::StdRng) -> Access {
        use rand::Rng;
        let (lanes, slot) = (lm.lanes, lm.slot);
        let end = LM_BASE + lanes * slot;
        let size = end + LM_TAIL;
        let addr = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..size + 5),
            1 => LM_BASE - 4 + rng.gen_range(0..9),
            2 => end - 4 + rng.gen_range(0..9),
            _ => LM_BASE + rng.gen_range(0..slot) * lanes + rng.gen_range(0..lanes),
        };
        let stride = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6u32) {
            0 => 0,
            1 => 1,
            2 => lanes + 1,
            3 => rng.gen_range(1..2 * lanes + 2),
            _ => lanes,
        };
        let bytes = |rng: &mut rand::rngs::StdRng, len: u32| -> Vec<u8> {
            (0..len).map(|_| rng.gen()).collect()
        };
        match rng.gen_range(0..10u32) {
            0 => Access::Byte(addr(rng)),
            1 => Access::Word(addr(rng)),
            2 => Access::HostByte(addr(rng), rng.gen()),
            3 => Access::HostWord(addr(rng), rng.gen()),
            4 => Access::ViewByte(addr(rng), rng.gen()),
            5 => Access::ViewWord(addr(rng), rng.gen()),
            6 => Access::Add(addr(rng), rng.gen()),
            // Host walks take a nonzero stride.
            7 => Access::Read(addr(rng), stride(rng).max(1), rng.gen_range(0..slot + 3)),
            8 => {
                let len = rng.gen_range(0..slot + 3);
                Access::Write(addr(rng), stride(rng).max(1), bytes(rng, len))
            }
            _ => {
                // Lane `l` at element `e`; the walk's length fits the
                // furthest start's slot, or overruns it by a byte or two.
                let at = |l: u32, e: u32| LM_BASE + e * lanes + l;
                let n = rng.gen_range(1..=lanes.min(32));
                let first = rng.gen_range(0..lanes);
                let e0 = rng.gen_range(0..slot);
                let mut starts: Vec<u32> = match rng.gen_range(0..4u32) {
                    0 => (0..n).map(|i| at((first + i) % lanes, e0)).collect(),
                    1 => (0..n)
                        .map(|i| at((first + i) % lanes, rng.gen_range(0..slot)))
                        .collect(),
                    2 => vec![at(first, e0), at(first, rng.gen_range(0..slot))],
                    _ => (0..n).map(|_| addr(rng)).collect(),
                };
                if rng.gen_bool(0.5) {
                    starts.reverse();
                }
                let deepest = starts
                    .iter()
                    .map(|&s| s.saturating_sub(LM_BASE) / lanes)
                    .max()
                    .unwrap_or(0);
                let overrun = if rng.gen_bool(0.25) {
                    rng.gen_range(1..3)
                } else {
                    0
                };
                let len = slot.saturating_sub(deepest) + overrun;
                Access::Splat(starts, stride(rng), bytes(rng, len))
            }
        }
    }

    /// A lane-major image agrees with a device-ordered one at every device
    /// address, whatever reads and writes them: bytes and words (words
    /// straddling lanes and both span edges) through the image and through
    /// a view, atomics, strided reads, writes and splats (lane runs, walks
    /// that overrun a slot or leave the span, congruent and overlapping
    /// splats), stores under an open journal that is then committed or
    /// rolled back, and every out-of-bounds error, value for value.
    #[test]
    fn lane_major_span_agrees_with_device_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A7E);
        for lanes in [2u32, 3, 5, 8, 9, 32, 33, 96] {
            for slot in [1u32, 7, 64] {
                let lm = LaneMajor {
                    base: LM_BASE,
                    lanes,
                    slot,
                };
                let size = (LM_BASE + lanes * slot + LM_TAIL) as usize;
                let mut plain = DeviceMemory::new(size);
                let mut laned = DeviceMemory::new(0);
                laned.recut(0, size, Some(lm));
                assert_eq!(laned.region, Region::of(lm));
                for a in 0..size as u32 {
                    let b = rng.gen::<u8>() as u32;
                    plain.write_byte(a, b).unwrap();
                    laned.write_byte(a, b).unwrap();
                }
                let what = format!("lanes {lanes} slot {slot}");
                if slot > 1 {
                    assert_ne!(laned.as_bytes(), plain.as_bytes(), "{what}: host order");
                }
                for round in 0..300 {
                    let journal = rng.gen_bool(0.2).then(|| {
                        let start = rng.gen_range(0..size as u32);
                        (start, rng.gen_range(0..=size as u32 - start))
                    });
                    if let Some((start, len)) = journal {
                        plain.begin_journal(start, len).unwrap();
                        laned.begin_journal(start, len).unwrap();
                    }
                    for _ in 0..rng.gen_range(1..6) {
                        let access = random_access(lm, &mut rng);
                        if journal.is_some() && !access.is_view_store() {
                            continue;
                        }
                        assert_eq!(
                            access.apply(&mut laned),
                            access.apply(&mut plain),
                            "{what} round {round}: {access:?}"
                        );
                    }
                    if journal.is_some() {
                        assert_eq!(laned.journal_len(), plain.journal_len(), "{what}");
                        if rng.gen_bool(0.5) {
                            plain.rollback_journal();
                            laned.rollback_journal();
                        } else {
                            plain.commit_journal();
                            laned.commit_journal();
                        }
                    }
                }
                for a in 0..size as u32 + 4 {
                    assert_eq!(laned.read_byte(a), plain.read_byte(a), "{what} byte {a}");
                    assert_eq!(laned.read_word(a), plain.read_word(a), "{what} word {a}");
                }
                assert!(laned == plain, "{what}: compares in device order");
                let last = LM_BASE + lanes * slot - 1;
                laned
                    .write_byte(last, plain.read_byte(last).unwrap() ^ 1)
                    .unwrap();
                assert!(laned != plain, "{what}: one device byte differs");
            }
        }
    }

    /// The walks a cohort runs in the span — a transposed wide copy of
    /// every lane, in step and diverged, and each lane's read-back — are
    /// the lanes' host runs.
    #[test]
    fn lane_runs_are_host_runs() {
        for lanes in [2u32, 3, 33] {
            let slot = 8;
            let lm = LaneMajor {
                base: LM_BASE,
                lanes,
                slot,
            };
            let mut m = DeviceMemory::new(0);
            m.recut(0, (LM_BASE + lanes * slot) as usize, Some(lm));
            let starts: Vec<u32> = (0..lanes).map(|l| LM_BASE + l + l % 2 * lanes).collect();
            m.view().store_strided(&starts, lanes, b"abcdef").unwrap();
            for l in 0..lanes {
                let at = (LM_BASE + l * slot) as usize;
                let host = &m.as_bytes()[at..at + slot as usize];
                let expect: &[u8] = if l % 2 == 0 {
                    b"abcdef\0\0"
                } else {
                    b"\0abcdef\0"
                };
                assert_eq!(host, expect, "lanes {lanes} lane {l}");
                let read = m.read_strided(LM_BASE + l, lanes, slot).unwrap();
                assert_eq!(read, expect, "lanes {lanes} lane {l} read back");
            }
        }
    }

    #[test]
    fn host_borrows_refuse_the_lane_major_span() {
        let lm = LaneMajor {
            base: LM_BASE,
            lanes: 3,
            slot: 7,
        };
        let end = LM_BASE + 21;
        let mut m = DeviceMemory::new(0);
        m.recut(0, 64, Some(lm));
        let refused = |addr, len| MemError::LaneMajor { addr, len };
        assert_eq!(m.slice(LM_BASE - 4, 4).map(<[u8]>::len), Ok(4));
        assert_eq!(
            m.slice(LM_BASE - 3, 4).unwrap_err(),
            refused(LM_BASE - 3, 4)
        );
        assert_eq!(m.slice(end - 1, 1).unwrap_err(), refused(end - 1, 1));
        assert_eq!(
            m.slice(end, 64 - end).map(<[u8]>::len),
            Ok(64 - end as usize)
        );
        assert_eq!(m.slice_mut(LM_BASE, 1).unwrap_err(), refused(LM_BASE, 1));
        assert_eq!(m.load(end - 2, b"ab").unwrap_err(), refused(end - 2, 2));
        assert!(m.load(end, b"ab").is_ok());
        assert!(
            matches!(m.slice(60, 8), Err(MemError::OutOfBounds { .. })),
            "out of bounds before lane-major"
        );
    }

    /// A re-cut keeps the device bytes of a span that lies in the kept
    /// head, and declares a new span only in the zeroed tail.
    #[test]
    fn recut_keeps_device_order_of_the_head() {
        let lm = LaneMajor {
            base: LM_BASE,
            lanes: 4,
            slot: 4,
        };
        let mut m = DeviceMemory::new(0);
        m.recut(0, 48, Some(lm));
        for a in 0..48 {
            m.write_byte(a, a).unwrap();
        }
        m.recut(40, 64, None);
        assert_eq!(m.region, Region::NONE);
        let device: Vec<u8> = (0..40).chain([0; 24]).collect();
        assert_eq!(m.as_bytes(), device);
        m.recut(16, 48, Some(lm));
        assert!((0..48).all(|a| m.read_byte(a) == Ok(if a < 16 { a } else { 0 })));
        let result = std::panic::catch_unwind(move || m.recut(17, 48, Some(lm)));
        assert!(result.is_err(), "a span below `keep` is refused");
    }

    #[test]
    fn error_display() {
        let e = MemError::ReadOnly {
            space: MemSpace::Const,
        };
        assert!(e.to_string().contains("read-only"));
    }
}
