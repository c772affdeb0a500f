//! Device-memory layout for one cohort and the kernel parameter
//! conventions shared by every banking kernel.
//!
//! Device memory starts with the state that outlives a cohort — the
//! session array, then the device backend store — at bases that do not
//! depend on the cohort, so a [`crate::runner::DeviceContext`] can keep
//! them resident and re-cut only what follows. A cohort of `N` requests
//! then owns five 2-D buffer regions (paper §5.3: 512 B request slots,
//! 1 KB backend requests, 4 KB backend responses, and a power-of-two
//! response buffer per type). Each 2-D buffer can be laid out row-major
//! (lane-contiguous) or transposed (element-interleaved); kernels receive
//! `(lane_stride, elem_stride)` pairs so the *same program* runs either
//! layout — the instruction stream is identical, only the memory system
//! sees the difference.

use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::mem::DeviceMemory;
use rhythm_simt::MemError;

/// Bytes per raw request slot (paper: 512 B requests).
pub const REQBUF_BYTES: u32 = 512;
/// Bytes per backend request slot (paper: 1 KB).
pub const BREQ_BYTES: u32 = 1024;
/// Bytes per backend response slot (paper: 4 KB).
pub const BRESP_BYTES: u32 = 4096;
/// Words per parsed request struct.
pub const STRUCT_WORDS: u32 = 12;

// ---- launch parameter indices (every kernel uses the same table) -------

/// Cohort size `N`.
pub const P_COHORT: u16 = 0;
/// Layout flag (0 = row-major, 1 = transposed) — informational.
pub const P_LAYOUT: u16 = 1;
/// Response buffer base / slot size / lane stride / element stride.
pub const P_RESP_BASE: u16 = 2;
/// See [`P_RESP_BASE`].
pub const P_RESP_SIZE: u16 = 3;
/// See [`P_RESP_BASE`].
pub const P_RESP_LSTRIDE: u16 = 4;
/// See [`P_RESP_BASE`].
pub const P_RESP_ESTRIDE: u16 = 5;
/// Backend request buffer base / size / strides.
pub const P_BREQ_BASE: u16 = 6;
/// See [`P_BREQ_BASE`].
pub const P_BREQ_SIZE: u16 = 7;
/// See [`P_BREQ_BASE`].
pub const P_BREQ_LSTRIDE: u16 = 8;
/// See [`P_BREQ_BASE`].
pub const P_BREQ_ESTRIDE: u16 = 9;
/// Backend response buffer base / size / strides.
pub const P_BRESP_BASE: u16 = 10;
/// See [`P_BRESP_BASE`].
pub const P_BRESP_SIZE: u16 = 11;
/// See [`P_BRESP_BASE`].
pub const P_BRESP_LSTRIDE: u16 = 12;
/// See [`P_BRESP_BASE`].
pub const P_BRESP_ESTRIDE: u16 = 13;
/// Parsed request struct base (always column-major words).
pub const P_STRUCT_BASE: u16 = 14;
/// Session array base / capacity / token salt.
pub const P_SESSION_BASE: u16 = 15;
/// See [`P_SESSION_BASE`].
pub const P_SESSION_CAP: u16 = 16;
/// See [`P_SESSION_BASE`].
pub const P_SESSION_SALT: u16 = 17;
/// Device backend store base.
pub const P_STORE_BASE: u16 = 18;
/// Raw request buffer base / size / strides.
pub const P_REQBUF_BASE: u16 = 19;
/// See [`P_REQBUF_BASE`].
pub const P_REQBUF_SIZE: u16 = 20;
/// See [`P_REQBUF_BASE`].
pub const P_REQBUF_LSTRIDE: u16 = 21;
/// See [`P_REQBUF_BASE`].
pub const P_REQBUF_ESTRIDE: u16 = 22;
/// Number of users in the device backend store (bounds checking).
pub const P_STORE_USERS: u16 = 23;
/// Number of launch parameters.
pub const PARAM_COUNT: usize = 24;

// ---- request struct fields (word indices) --------------------------------

/// Request type id.
pub const F_TYPE: u32 = 0;
/// Session token from the cookie (0 when absent).
pub const F_TOKEN: u32 = 1;
/// Positional parameters p0..p3 (p0 = userid).
pub const F_P0: u32 = 2;
/// See [`F_P0`].
pub const F_P1: u32 = 3;
/// See [`F_P0`].
pub const F_P2: u32 = 4;
/// See [`F_P0`].
pub const F_P3: u32 = 5;
/// Status: 0 = ok, 1 = forbidden (error paths, paper §4.4).
pub const F_STATUS: u32 = 6;
/// Response length in bytes (set by the response-generation stage).
pub const F_RESP_LEN: u32 = 7;
/// Backend request length in bytes (set by backend-request stages).
pub const F_BREQ_LEN: u32 = 8;
/// Token created at login (response stage emits it in `Set-Cookie`).
pub const F_NEWTOKEN: u32 = 9;
/// Resolved user id (set by session validation).
pub const F_USERID: u32 = 10;

/// Byte layout of one cohort's device memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CohortLayout {
    /// Lanes (requests) per cohort.
    pub cohort: u32,
    /// Response slot bytes (power of two, per request type).
    pub resp_size: u32,
    /// Transposed (true) or row-major (false) buffers.
    pub transposed: bool,
    /// Session array capacity in nodes.
    pub session_capacity: u32,
    /// Session token salt.
    pub session_salt: u32,
    /// Raw request region base.
    pub reqbuf_base: u32,
    /// Parsed struct region base.
    pub struct_base: u32,
    /// Backend request region base.
    pub breq_base: u32,
    /// Backend response region base.
    pub bresp_base: u32,
    /// Response region base.
    pub resp_base: u32,
    /// Session array base.
    pub session_base: u32,
    /// Device backend store base.
    pub store_base: u32,
    /// Store size in bytes.
    pub store_bytes: u32,
    /// User records in the store (`store_bytes / RECORD_BYTES`).
    pub store_users: u32,
    /// Total device bytes needed.
    pub total_bytes: u32,
}

impl CohortLayout {
    /// Lay out the regions sequentially, resident state first: sessions,
    /// store, then the cohort's buffers, every base 128-byte aligned.
    /// `store_bytes` may be zero when the cohort never touches a device
    /// backend (Titan A).
    pub fn new(
        cohort: u32,
        resp_size: u32,
        session_capacity: u32,
        session_salt: u32,
        store_bytes: u32,
        transposed: bool,
    ) -> Self {
        let align = |x: u32| (x + 127) & !127;
        let session_base = 0;
        let store_base = align(session_base + session_capacity * crate::session_array::NODE_BYTES);
        let reqbuf_base = align(store_base + store_bytes);
        let struct_base = align(reqbuf_base + cohort * REQBUF_BYTES);
        let breq_base = align(struct_base + cohort * STRUCT_WORDS * 4);
        let bresp_base = align(breq_base + cohort * BREQ_BYTES);
        let resp_base = align(bresp_base + cohort * BRESP_BYTES);
        let total_bytes = align(resp_base + cohort * resp_size);
        CohortLayout {
            cohort,
            resp_size,
            transposed,
            session_capacity,
            session_salt,
            reqbuf_base,
            struct_base,
            breq_base,
            bresp_base,
            resp_base,
            session_base,
            store_base,
            store_bytes,
            store_users: store_bytes / crate::backend::RECORD_BYTES,
            total_bytes,
        }
    }

    /// The declared global-memory spans of this layout, in the form the
    /// effect-summary engine anchors data-dependent addresses against
    /// (`rhythm_verify::effects::RegionMap`). One span per region, in
    /// ascending order; the 128-byte alignment gaps between regions are
    /// deliberately excluded so a claim never silently bleeds into a
    /// neighbour.
    pub fn regions(&self) -> rhythm_verify::effects::RegionMap {
        let span = |base: u32, bytes: u32| (base as u64, base as u64 + bytes as u64);
        rhythm_verify::effects::RegionMap::new(vec![
            span(
                self.session_base,
                self.session_capacity * crate::session_array::NODE_BYTES,
            ),
            span(self.store_base, self.store_bytes),
            span(self.reqbuf_base, self.cohort * REQBUF_BYTES),
            span(self.struct_base, self.cohort * STRUCT_WORDS * 4),
            span(self.breq_base, self.cohort * BREQ_BYTES),
            span(self.bresp_base, self.cohort * BRESP_BYTES),
            span(self.resp_base, self.cohort * self.resp_size),
        ])
    }

    /// Bytes of the resident head (session array + store): everything
    /// below the first per-cohort buffer. Depends on the session capacity
    /// and the store size only, never on the cohort.
    pub fn resident_bytes(&self) -> u32 {
        self.reqbuf_base
    }

    /// Bytes of the five per-cohort buffers (with their alignment gaps):
    /// what one more cohort in flight costs in device memory.
    pub fn cohort_bytes(&self) -> u32 {
        self.total_bytes - self.reqbuf_base
    }

    /// The session array's `[lo, hi)` byte span in device memory — the
    /// range whose write footprint decides whether a cohort opens the
    /// session undo journal.
    pub fn session_span(&self) -> (u64, u64) {
        let lo = self.session_base as u64;
        let bytes = self.session_capacity as u64 * crate::session_array::NODE_BYTES as u64;
        (lo, lo + bytes)
    }

    /// `(lane_stride, elem_stride)` for a buffer of `slot` bytes under
    /// this layout.
    pub fn strides(&self, slot: u32) -> (u32, u32) {
        if self.transposed {
            (1, self.cohort)
        } else {
            (slot, 1)
        }
    }

    /// The standardized launch-parameter vector.
    pub fn params(&self) -> Vec<u32> {
        let (resp_ls, resp_es) = self.strides(self.resp_size);
        let (breq_ls, breq_es) = self.strides(BREQ_BYTES);
        let (bresp_ls, bresp_es) = self.strides(BRESP_BYTES);
        let (req_ls, req_es) = self.strides(REQBUF_BYTES);
        let mut p = vec![0u32; PARAM_COUNT];
        p[P_COHORT as usize] = self.cohort;
        p[P_LAYOUT as usize] = self.transposed as u32;
        p[P_RESP_BASE as usize] = self.resp_base;
        p[P_RESP_SIZE as usize] = self.resp_size;
        p[P_RESP_LSTRIDE as usize] = resp_ls;
        p[P_RESP_ESTRIDE as usize] = resp_es;
        p[P_BREQ_BASE as usize] = self.breq_base;
        p[P_BREQ_SIZE as usize] = BREQ_BYTES;
        p[P_BREQ_LSTRIDE as usize] = breq_ls;
        p[P_BREQ_ESTRIDE as usize] = breq_es;
        p[P_BRESP_BASE as usize] = self.bresp_base;
        p[P_BRESP_SIZE as usize] = BRESP_BYTES;
        p[P_BRESP_LSTRIDE as usize] = bresp_ls;
        p[P_BRESP_ESTRIDE as usize] = bresp_es;
        p[P_STRUCT_BASE as usize] = self.struct_base;
        p[P_SESSION_BASE as usize] = self.session_base;
        p[P_SESSION_CAP as usize] = self.session_capacity;
        p[P_SESSION_SALT as usize] = self.session_salt;
        p[P_STORE_BASE as usize] = self.store_base;
        p[P_REQBUF_BASE as usize] = self.reqbuf_base;
        p[P_REQBUF_SIZE as usize] = REQBUF_BYTES;
        p[P_REQBUF_LSTRIDE as usize] = req_ls;
        p[P_REQBUF_ESTRIDE as usize] = req_es;
        p[P_STORE_USERS as usize] = self.store_users;
        p
    }

    /// The launch shape every kernel of a cohort runs with: one lane per
    /// request, [`Self::params`], 64 B of local and 1 KiB of shared memory.
    pub fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            lanes: self.cohort,
            params: self.params(),
            local_bytes: 64,
            shared_bytes: 1024,
            ..Default::default()
        }
    }

    /// Address of word `field` of lane `lane`'s request struct (structs
    /// are always stored column-major so warp accesses coalesce).
    pub fn struct_addr(&self, lane: u32, field: u32) -> u32 {
        self.struct_base + (field * self.cohort + lane) * 4
    }

    /// Read a struct field from device memory.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds access.
    pub fn read_struct(&self, mem: &DeviceMemory, lane: u32, field: u32) -> Result<u32, MemError> {
        mem.read_word(self.struct_addr(lane, field))
    }

    /// Write a struct field into device memory.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds access.
    pub fn write_struct(
        &self,
        mem: &mut DeviceMemory,
        lane: u32,
        field: u32,
        value: u32,
    ) -> Result<(), MemError> {
        mem.write_word(self.struct_addr(lane, field), value)
    }

    /// Byte address of element `pos` of lane `lane` within the buffer at
    /// `base` with `slot` bytes per lane.
    pub fn elem_addr(&self, base: u32, slot: u32, lane: u32, pos: u32) -> u32 {
        let (ls, es) = self.strides(slot);
        base + lane * ls + pos * es
    }

    /// Gather lane `lane`'s logical buffer (respecting the layout) from
    /// device memory.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds access.
    pub fn read_lane(
        &self,
        mem: &DeviceMemory,
        base: u32,
        slot: u32,
        lane: u32,
    ) -> Result<Vec<u8>, MemError> {
        self.read_lane_prefix(mem, base, slot, lane, slot)
    }

    /// Gather the first `len` bytes of lane `lane`'s logical buffer. One
    /// bounds check covers the whole gather.
    ///
    /// # Errors
    ///
    /// Out-of-bounds when the prefix does not lie inside device memory or
    /// `len` exceeds the slot (a length word a kernel got wrong).
    pub fn read_lane_prefix(
        &self,
        mem: &DeviceMemory,
        base: u32,
        slot: u32,
        lane: u32,
        len: u32,
    ) -> Result<Vec<u8>, MemError> {
        let (first, span, stride) = self.lane_span(base, slot, lane, len);
        if len > slot {
            return Err(MemError::OutOfBounds {
                space: rhythm_simt::ir::MemSpace::Global,
                addr: first,
                len,
                size: mem.len(),
            });
        }
        let bytes = mem.slice(first, span)?;
        Ok(bytes.iter().step_by(stride).copied().collect())
    }

    /// Where the first `len` bytes of lane `lane`'s logical buffer lie:
    /// the address of the first, the bytes from it up to and including the
    /// last (saturating, so an overflowing span fails the bounds check),
    /// and the step between consecutive ones.
    fn lane_span(&self, base: u32, slot: u32, lane: u32, len: u32) -> (u32, u32, usize) {
        let (_, stride) = self.strides(slot);
        let span = match len {
            0 => 0,
            _ => (len - 1).saturating_mul(stride).saturating_add(1),
        };
        (self.elem_addr(base, slot, lane, 0), span, stride as usize)
    }

    /// Scatter `data` into lane `lane`'s logical buffer, after one bounds
    /// check of the span it lands in.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds access.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the slot size.
    pub fn write_lane(
        &self,
        mem: &mut DeviceMemory,
        base: u32,
        slot: u32,
        lane: u32,
        data: &[u8],
    ) -> Result<(), MemError> {
        assert!(data.len() <= slot as usize, "lane data exceeds slot");
        let (first, span, stride) = self.lane_span(base, slot, lane, data.len() as u32);
        let bytes = mem.slice_mut(first, span)?;
        for (dst, &b) in bytes.iter_mut().step_by(stride).zip(data) {
            *dst = b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let l = CohortLayout::new(256, 32 * 1024, 1024, 0xAB, 64 * 2048, true);
        let regions = l.regions();
        let spans = regions.spans();
        assert_eq!(spans.len(), 7, "one span per region, none empty");
        for (i, &(lo, hi)) in spans.iter().enumerate() {
            assert!(hi <= l.total_bytes as u64, "region {i} inside the image");
            for &(lo2, hi2) in &spans[i + 1..] {
                assert!(hi <= lo2 || hi2 <= lo, "regions {i} and later overlap");
            }
        }
        for base in [
            l.session_base,
            l.store_base,
            l.reqbuf_base,
            l.struct_base,
            l.breq_base,
            l.bresp_base,
            l.resp_base,
        ] {
            assert_eq!(base % 128, 0, "bases stay transaction-aligned");
        }
    }

    #[test]
    fn resident_head_is_cohort_independent() {
        let a = CohortLayout::new(1, 1024, 4096, 7, 16 * 2048, true);
        let b = CohortLayout::new(32, 32 * 1024, 4096, 7, 16 * 2048, false);
        assert_eq!(
            (a.session_base, a.store_base, a.resident_bytes()),
            (b.session_base, b.store_base, b.resident_bytes())
        );
        assert_eq!(a.session_span(), b.session_span());
        assert_eq!(a.total_bytes, a.resident_bytes() + a.cohort_bytes());
        assert!(b.cohort_bytes() > a.cohort_bytes());
    }

    #[test]
    fn strides_by_layout() {
        let row = CohortLayout::new(128, 8192, 128, 0, 0, false);
        assert_eq!(row.strides(8192), (8192, 1));
        let col = CohortLayout::new(128, 8192, 128, 0, 0, true);
        assert_eq!(col.strides(8192), (1, 128));
    }

    #[test]
    fn params_vector_consistent() {
        let l = CohortLayout::new(64, 16384, 256, 7, 1024, true);
        let p = l.params();
        assert_eq!(p.len(), PARAM_COUNT);
        assert_eq!(p[P_COHORT as usize], 64);
        assert_eq!(p[P_RESP_SIZE as usize], 16384);
        assert_eq!(p[P_RESP_LSTRIDE as usize], 1);
        assert_eq!(p[P_RESP_ESTRIDE as usize], 64);
        assert_eq!(p[P_SESSION_SALT as usize], 7);
    }

    #[test]
    fn lane_roundtrip_both_layouts() {
        for transposed in [false, true] {
            let l = CohortLayout::new(8, 1024, 8, 0, 0, transposed);
            let mut mem = DeviceMemory::new(l.total_bytes as usize);
            l.write_lane(&mut mem, l.resp_base, l.resp_size, 3, b"hello lane three")
                .unwrap();
            let back = l.read_lane(&mem, l.resp_base, l.resp_size, 3).unwrap();
            assert_eq!(&back[..16], b"hello lane three");
            // Other lanes untouched.
            let other = l.read_lane(&mem, l.resp_base, l.resp_size, 2).unwrap();
            assert!(other.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn lane_prefix_is_bounds_checked_once() {
        for transposed in [false, true] {
            let l = CohortLayout::new(8, 64, 8, 0, 0, transposed);
            let mut mem = DeviceMemory::new(l.total_bytes as usize);
            for lane in 0..8 {
                let text = [b'a' + lane as u8; 64];
                l.write_lane(&mut mem, l.resp_base, 64, lane, &text)
                    .unwrap();
            }
            let read = |lane, len| l.read_lane_prefix(&mem, l.resp_base, 64, lane, len);
            assert_eq!(read(7, 5).unwrap(), b"hhhhh");
            assert_eq!(read(0, 0).unwrap(), b"");
            assert_eq!(read(7, 64).unwrap(), [b'h'; 64]);
            assert!(read(7, 65).is_err(), "length word past the slot");
            // The last lane's last byte is the image's last byte: one more
            // lane would run off it.
            assert_eq!(l.total_bytes, l.resp_base + 8 * 64);
            assert!(read(8, 64).is_err());
            assert!(l
                .write_lane(&mut mem, l.resp_base, 64, 8, &[1; 64])
                .is_err());
        }
    }

    #[test]
    fn struct_fields_roundtrip() {
        let l = CohortLayout::new(16, 1024, 16, 0, 0, true);
        let mut mem = DeviceMemory::new(l.total_bytes as usize);
        l.write_struct(&mut mem, 5, F_TOKEN, 0xFEED).unwrap();
        l.write_struct(&mut mem, 5, F_P0, 42).unwrap();
        assert_eq!(l.read_struct(&mem, 5, F_TOKEN).unwrap(), 0xFEED);
        assert_eq!(l.read_struct(&mem, 5, F_P0).unwrap(), 42);
        assert_eq!(l.read_struct(&mem, 4, F_TOKEN).unwrap(), 0);
    }

    #[test]
    fn transposed_adjacent_lanes_adjacent_bytes() {
        let l = CohortLayout::new(32, 512, 32, 0, 0, true);
        let a0 = l.elem_addr(l.resp_base, 512, 0, 7);
        let a1 = l.elem_addr(l.resp_base, 512, 1, 7);
        assert_eq!(a1, a0 + 1, "same element, next lane → next byte");
    }
}
