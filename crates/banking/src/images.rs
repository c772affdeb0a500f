//! Static image serving: image cohorts (paper §5.1).
//!
//! "We implement support for static images … The parser groups image
//! requests into an image cohort, these cohorts bypass the process stage
//! and the image responses are sent to the respective clients." Image
//! throughput is dictated by network bandwidth, not compute — which the
//! bench harness demonstrates.
//!
//! The check images live in an [`ImageStore`] (deterministic synthetic
//! JPEG-ish payloads), serialized into device global memory; the image
//! kernel copies `header ⧺ bytes` straight into the response buffer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rhythm_obs::NoopRecorder;
use rhythm_simt::ir::{BinOp, Program, ProgramBuilder, Width};
use rhythm_simt::mem::ConstPool;

use crate::kernels::common::{env, ld_struct, st_struct};
use crate::layout::{F_P1, F_RESP_LEN};

/// Device bytes reserved per image slot (length word + payload).
pub const IMAGE_SLOT_BYTES: u32 = 16 * 1024;
/// The request-line file name the parser classifies as an image request.
pub const IMAGE_FILE_NAME: &str = "check_image.php";
/// The type id the parser assigns to image requests (after the 14
/// dynamic types).
pub const IMAGE_TYPE_ID: u32 = 14;

/// A store of synthetic check images.
///
/// # Example
///
/// ```
/// use rhythm_banking::images::ImageStore;
///
/// let store = ImageStore::generate(16, 99);
/// let img = store.image(3).unwrap();
/// assert!(img.len() >= 2048);
/// assert_eq!(&img[..3], &[0xFF, 0xD8, 0xFF], "JPEG SOI marker");
/// ```
#[derive(Clone, Debug)]
pub struct ImageStore {
    images: Vec<Vec<u8>>,
}

impl ImageStore {
    /// Generate `count` images of 2–12 KB, deterministically.
    pub fn generate(count: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let images = (0..count)
            .map(|_| {
                let len = rng.gen_range(2048..12 * 1024);
                let mut img = Vec::with_capacity(len);
                img.extend_from_slice(&[0xFF, 0xD8, 0xFF, 0xE0]); // JPEG SOI/APP0
                while img.len() < len {
                    img.push(rng.gen());
                }
                img
            })
            .collect();
        ImageStore { images }
    }

    /// Number of images.
    pub fn len(&self) -> u32 {
        self.images.len() as u32
    }

    /// True when the store holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Borrow one image's bytes.
    pub fn image(&self, id: u32) -> Option<&[u8]> {
        self.images.get(id as usize).map(Vec::as_slice)
    }

    /// Serialize for the device: per slot, a little-endian length word
    /// followed by the payload.
    ///
    /// # Panics
    ///
    /// Panics if an image exceeds the slot.
    pub fn serialize_device(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.images.len() * IMAGE_SLOT_BYTES as usize];
        for (i, img) in self.images.iter().enumerate() {
            assert!(
                img.len() + 4 <= IMAGE_SLOT_BYTES as usize,
                "image overflows slot"
            );
            let base = i * IMAGE_SLOT_BYTES as usize;
            out[base..base + 4].copy_from_slice(&(img.len() as u32).to_le_bytes());
            out[base + 4..base + 4 + img.len()].copy_from_slice(img);
        }
        out
    }

    /// The reference (host) response for an image request, exactly what
    /// the kernel emits.
    pub fn native_response(&self, id: u32) -> Vec<u8> {
        match self.image(id) {
            Some(img) => {
                let mut out = image_header(img.len()).into_bytes();
                out.extend_from_slice(img);
                out
            }
            None => crate::templates::FORBIDDEN.as_bytes().to_vec(),
        }
    }
}

/// Response header for an image of `len` bytes (bare-LF framing like the
/// dynamic pages; the length is written directly, no backpatch needed
/// since image sizes are known up front).
pub fn image_header(len: usize) -> String {
    format!(
        "HTTP/1.1 200 OK\nServer: Rhythm/0.1\nContent-Type: image/jpeg\nContent-Length: {len}\n\n"
    )
}

/// Build the image-cohort kernel: each lane reads image id `p1` from its
/// request struct and copies header + payload into the response buffer.
/// Launch params follow the standard table; the image store sits at
/// `P_STORE_BASE` with `P_STORE_USERS` reinterpreted as the image count.
pub fn build_image_kernel(pool: &mut ConstPool) -> Program {
    // Header prefix up to the Content-Length value, and the tail.
    let (h_off, h_len) = pool.intern_str(
        "HTTP/1.1 200 OK\nServer: Rhythm/0.1\nContent-Type: image/jpeg\nContent-Length: ",
    );
    let (forb_off, forb_len) = pool.intern_str(crate::templates::FORBIDDEN);

    let mut b = ProgramBuilder::new("image_response");
    let e = env(&mut b);
    let id = ld_struct(&mut b, &e, F_P1);
    let in_range = b.bin(BinOp::LtU, id, e.store_users);
    let cur = e.resp.cursor(&mut b);
    let e2 = e;
    let cur2 = cur;
    b.if_then_else(
        in_range,
        move |b| {
            let slot = b.imm(IMAGE_SLOT_BYTES);
            let off = b.bin(BinOp::Mul, id, slot);
            let rec = b.bin(BinOp::Add, e2.store_base, off);
            let len = b.ld(Width::Word, rhythm_simt::ir::MemSpace::Global, rec, 0);

            b.write_const_str(&cur2, h_off, h_len);
            b.write_decimal(&cur2, len, super::kernels::common::DECIMAL_SCRATCH);
            let nl = b.imm(b'\n' as u32);
            b.cursor_write_byte(&cur2, nl);
            b.cursor_write_byte(&cur2, nl);

            // Copy the payload.
            let four = b.imm(4);
            let src = b.bin(BinOp::Add, rec, four);
            b.for_loop(len, |b, i| {
                let a = b.bin(BinOp::Add, src, i);
                let ch = b.ld(Width::Byte, rhythm_simt::ir::MemSpace::Global, a, 0);
                b.cursor_write_byte(&cur2, ch);
            });
            st_struct(b, &e2, F_RESP_LEN, cur2.pos);
        },
        move |b| {
            b.write_const_str(&cur2, forb_off, forb_len);
            let l = b.imm(forb_len);
            st_struct(b, &e2, F_RESP_LEN, l);
        },
    );
    b.halt();
    b.build().expect("image kernel assembles")
}

/// Raw HTTP text for an image request.
pub fn image_raw(userid: u32, image_id: u32) -> Vec<u8> {
    format!(
        "GET /bank/{IMAGE_FILE_NAME}?userid={userid}&a={image_id} HTTP/1.1\r\nHost: bank.example.com\r\nUser-Agent: SPECWeb/2009\r\n\r\n"
    )
    .into_bytes()
}

/// Run one image cohort: parse, then the bypassing image kernel — no
/// process stages, no backend (paper §5.1).
///
/// # Errors
///
/// Propagates kernel execution faults.
///
/// # Panics
///
/// Panics on an empty cohort.
pub fn run_image_cohort(
    workload: &crate::kernels::Workload,
    images: &ImageStore,
    requests: &[(u32, u32)], // (userid, image_id)
    gpu: &rhythm_simt::gpu::Gpu,
    transposed: bool,
) -> Result<ImageCohortResult, rhythm_simt::ExecError> {
    use crate::layout::{CohortLayout, F_RESP_LEN, F_TYPE, REQBUF_BYTES};
    use rhythm_simt::mem::DeviceMemory;

    assert!(!requests.is_empty(), "empty image cohort");
    let cohort = requests.len() as u32;
    let store_img = images.serialize_device();
    let layout = CohortLayout::new(cohort, IMAGE_SLOT_BYTES, 1, 0, 0, transposed);
    // The image store replaces the bank store; it sits after the layout's
    // regions and its base/count override the store params.
    let store_base = layout.total_bytes;
    let mut cfg = layout.launch_config();
    cfg.params[crate::layout::P_STORE_BASE as usize] = store_base;
    cfg.params[crate::layout::P_STORE_USERS as usize] = images.len();

    let mut mem = DeviceMemory::new((layout.total_bytes + store_img.len() as u32) as usize);
    mem.load(store_base, &store_img)?;
    for (lane, &(userid, image_id)) in requests.iter().enumerate() {
        layout.write_lane(
            &mut mem,
            layout.reqbuf_base,
            REQBUF_BYTES,
            lane as u32,
            &image_raw(userid, image_id),
        )?;
    }

    let pool = &workload.pool;
    let parse = gpu.launch(&workload.parser, &cfg, &mut mem, pool, &NoopRecorder)?;
    let image = gpu.launch(&workload.image, &cfg, &mut mem, pool, &NoopRecorder)?;

    let mut responses = Vec::with_capacity(requests.len());
    let mut classified = Vec::with_capacity(requests.len());
    for lane in 0..cohort {
        classified.push(layout.read_struct(&mem, lane, F_TYPE)?);
        let len = layout.read_struct(&mem, lane, F_RESP_LEN)?;
        let full = layout.read_lane(&mem, layout.resp_base, layout.resp_size, lane)?;
        responses.push(full[..len as usize].to_vec());
    }
    Ok(ImageCohortResult {
        responses,
        classified,
        parse,
        image,
    })
}

/// Result of [`run_image_cohort`].
#[derive(Clone, Debug)]
pub struct ImageCohortResult {
    /// Per-lane raw responses.
    pub responses: Vec<Vec<u8>>,
    /// Parser-assigned type id per lane (should be [`IMAGE_TYPE_ID`]).
    pub classified: Vec<u32>,
    /// Parser launch result.
    pub parse: rhythm_simt::LaunchResult,
    /// Image-kernel launch result.
    pub image: rhythm_simt::LaunchResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_generation_deterministic() {
        let a = ImageStore::generate(8, 5);
        let b = ImageStore::generate(8, 5);
        assert_eq!(a.image(2), b.image(2));
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn serialization_layout() {
        let s = ImageStore::generate(4, 1);
        let img = s.serialize_device();
        assert_eq!(img.len(), 4 * IMAGE_SLOT_BYTES as usize);
        let len = u32::from_le_bytes(img[0..4].try_into().unwrap());
        assert_eq!(len as usize, s.image(0).unwrap().len());
        assert_eq!(&img[4..8], &s.image(0).unwrap()[..4]);
    }

    #[test]
    fn native_response_shape() {
        let s = ImageStore::generate(2, 3);
        let r = s.native_response(1);
        let text = String::from_utf8_lossy(&r[..80]);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("image/jpeg"));
        assert!(s.native_response(99).starts_with(b"HTTP/1.1 403"));
    }

    #[test]
    fn kernel_builds() {
        let mut pool = ConstPool::new();
        let k = build_image_kernel(&mut pool);
        assert_eq!(k.name(), "image_response");
        assert!(k.static_len() > 20);
    }

    #[test]
    fn image_cohort_end_to_end() {
        use rhythm_simt::gpu::{Gpu, GpuConfig};
        let workload = crate::kernels::Workload::build();
        let images = ImageStore::generate(8, 4);
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let requests: Vec<(u32, u32)> = (0..40).map(|i| (i, i % 8)).collect();
        let result = run_image_cohort(&workload, &images, &requests, &gpu, true).unwrap();
        for (lane, &(_, id)) in requests.iter().enumerate() {
            assert_eq!(result.classified[lane], IMAGE_TYPE_ID, "lane {lane}");
            assert_eq!(
                result.responses[lane],
                images.native_response(id),
                "lane {lane}: kernel matches reference"
            );
        }
    }

    #[test]
    fn out_of_range_image_forbidden() {
        use rhythm_simt::gpu::{Gpu, GpuConfig};
        let workload = crate::kernels::Workload::build();
        let images = ImageStore::generate(2, 4);
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let result = run_image_cohort(&workload, &images, &[(1, 7)], &gpu, false).unwrap();
        assert!(result.responses[0].starts_with(b"HTTP/1.1 403"));
    }
}
