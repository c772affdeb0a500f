//! The quick-pay extension: a variable number of kernel launches driven
//! by backend data.
//!
//! The paper *skips* quick pay: "Quick pay uses a variable number of
//! kernel launches based on backend data, making it difficult to
//! implement" (§5.1), and defers it to future work. This module
//! implements it: quick pay issues one payment per registered payee, so
//! a cohort needs `max(payee count)` backend rounds, with lanes whose
//! payments are finished idling (diverging) through the tail rounds —
//! exactly the straggler behaviour §3.1 anticipates.
//!
//! Kernel structure:
//!
//! * **setup** — session validation, page header + static head, issue a
//!   `Payees` backend request; the response cursor and loop state persist
//!   across launches in request-struct fields.
//! * **loop** (launched repeatedly by the host until every lane reports
//!   done) — on first entry parse the payee count; afterwards append one
//!   payment row from the resident `Pay` response and issue the next
//!   `Pay` request.
//! * **finish** — static tail, `Content-Length` backpatch.

use rhythm_obs::NoopRecorder;
use rhythm_simt::ir::{BinOp, Program, ProgramBuilder, UnOp};
use rhythm_simt::mem::ConstPool;

use crate::backend::{BackendCmd, BankStore};
use crate::kernels::common::{
    emit_copy_field_padded, emit_padded_money, emit_parse_field_u32, emit_session_lookup, env,
    ld_struct, st_struct, DECIMAL_SCRATCH,
};
use crate::layout::{F_BREQ_LEN, F_P2, F_P3, F_RESP_LEN, F_STATUS, F_TOKEN, F_USERID};
use crate::session_array::SessionArrayHost;
use crate::templates::{FORBIDDEN, HEADER_PREFIX};

/// Sentinel in `F_P2` meaning "payee count not yet known".
const REMAINING_UNKNOWN: u32 = u32::MAX;

/// Response-buffer slot for quick-pay pages.
pub const QUICKPAY_RESP_BYTES: u32 = 8 * 1024;

/// Static fragments of the quick-pay page.
const HEAD: &str = "<!DOCTYPE html>\n<html>\n<head><title>Rhythm Bank - Quick Pay</title></head>\n<body>\n<h1>Quick Pay</h1>\n<!-- page quick_pay.php -->\n<p>Paying all registered payees.</p>\n";
const ROW_PRE: &str = "<p>Payment confirmation\n";
const ROW_MID: &str = "</p>\n<p>Remaining balance $\n";
const ROW_POST: &str = "</p>\n";
const TAIL: &str = "<p>Quick pay complete.</p>\n</body>\n</html>\n";

/// The compiled quick-pay kernels.
#[derive(Clone, Debug)]
pub struct QuickPay {
    /// Setup stage.
    pub setup: Program,
    /// Repeated loop stage.
    pub round: Program,
    /// Final stage.
    pub finish: Program,
}

impl QuickPay {
    /// Compile the three kernels against the workload's constant pool.
    pub fn build(pool: &mut ConstPool) -> QuickPay {
        QuickPay {
            setup: build_setup(pool),
            round: build_round(pool),
            finish: build_finish(pool),
        }
    }
}

/// Byte offset of the Content-Length digits within the (fully static)
/// quick-pay header.
fn clen_pos() -> u32 {
    (HEADER_PREFIX.len() + "Content-Length: ".len()) as u32
}

/// Byte offset where the body starts.
fn body_start() -> u32 {
    clen_pos() + 10 + 2 // reserved digits + "\n\n"
}

fn emit_pay_breq(b: &mut ProgramBuilder, e: &crate::kernels::common::Env) {
    let cur = e.breq.cursor(b);
    let cmd = b.imm(BackendCmd::Pay.id());
    b.write_decimal(&cur, cmd, DECIMAL_SCRATCH);
    let pipe = b.imm(b'|' as u32);
    b.cursor_write_byte(&cur, pipe);
    let userid = ld_struct(b, e, F_USERID);
    b.write_decimal(&cur, userid, DECIMAL_SCRATCH);
    let nl = b.imm(b'\n' as u32);
    b.cursor_write_byte(&cur, nl);
    let nul = b.imm(0);
    b.cursor_write_byte(&cur, nul);
    st_struct(b, e, F_BREQ_LEN, cur.pos);
}

fn build_setup(pool: &mut ConstPool) -> Program {
    let (h_off, h_len) = pool.intern_str(HEADER_PREFIX);
    let (cl_off, cl_len) = pool.intern_str("Content-Length: ");
    let (bl_off, bl_len) = pool.intern_str("          ");
    let (head_off, head_len) = pool.intern_str(HEAD);

    let mut b = ProgramBuilder::new("quick_pay_setup");
    let e = env(&mut b);
    let token = ld_struct(&mut b, &e, F_TOKEN);
    emit_session_lookup(&mut b, &e, token);

    // Header + head (written regardless; forbidden lanes overwrite at
    // finish).
    let cur = e.resp.cursor(&mut b);
    b.write_const_str(&cur, h_off, h_len);
    b.write_const_str(&cur, cl_off, cl_len);
    b.write_const_str(&cur, bl_off, bl_len);
    let nl = b.imm(b'\n' as u32);
    b.cursor_write_byte(&cur, nl);
    b.cursor_write_byte(&cur, nl);
    b.write_const_str(&cur, head_off, head_len);

    st_struct(&mut b, &e, F_P3, cur.pos);
    let unknown = b.imm(REMAINING_UNKNOWN);
    st_struct(&mut b, &e, F_P2, unknown);

    // First backend access: the payee list.
    let cur2 = e.breq.cursor(&mut b);
    let cmd = b.imm(BackendCmd::Payees.id());
    b.write_decimal(&cur2, cmd, DECIMAL_SCRATCH);
    let pipe = b.imm(b'|' as u32);
    b.cursor_write_byte(&cur2, pipe);
    let userid = ld_struct(&mut b, &e, F_USERID);
    b.write_decimal(&cur2, userid, DECIMAL_SCRATCH);
    b.cursor_write_byte(&cur2, nl);
    let nul = b.imm(0);
    b.cursor_write_byte(&cur2, nul);
    st_struct(&mut b, &e, F_BREQ_LEN, cur2.pos);
    b.halt();
    b.build().expect("quick-pay setup assembles")
}

fn build_round(pool: &mut ConstPool) -> Program {
    let (pre_off, pre_len) = pool.intern_str(ROW_PRE);
    let (mid_off, mid_len) = pool.intern_str(ROW_MID);
    let (post_off, post_len) = pool.intern_str(ROW_POST);

    let mut b = ProgramBuilder::new("quick_pay_round");
    let e = env(&mut b);
    let status = ld_struct(&mut b, &e, F_STATUS);
    let ok = b.un(UnOp::IsZero, status);
    let e2 = e;
    b.if_then(ok, move |b| {
        let remaining = ld_struct(b, &e2, F_P2);
        let unknown = b.imm(REMAINING_UNKNOWN);
        let first = b.bin(BinOp::Eq, remaining, unknown);
        b.if_then_else(
            first,
            |b| {
                // The resident backend response is the payee list; its
                // field 0 is the count of payments to make.
                let zero = b.imm(0);
                let count = emit_parse_field_u32(b, &e2.bresp, zero);
                st_struct(b, &e2, F_P2, count);
                let has_work = b.bin(BinOp::GtU, count, zero);
                b.if_then(has_work, |b| {
                    emit_pay_breq(b, &e2);
                });
            },
            |b| {
                let zero = b.imm(0);
                let active = b.bin(BinOp::GtU, remaining, zero);
                b.if_then(active, |b| {
                    // Resident response: "OK|<confirmation>|<balance>".
                    // Resume the page cursor and append one payment row.
                    let pos = ld_struct(b, &e2, F_P3);
                    let cur = rhythm_simt::ir::BufCursor {
                        base: e2.resp.base,
                        pos,
                        elem_stride: e2.resp.es,
                        lane_term: e2.resp.lane_term,
                    };
                    b.write_const_str(&cur, pre_off, pre_len);
                    let one_f = b.imm(1);
                    emit_copy_field_padded(b, &e2.bresp, one_f, &cur, true);
                    b.write_const_str(&cur, mid_off, mid_len);
                    let two_f = b.imm(2);
                    let cents = emit_parse_field_u32(b, &e2.bresp, two_f);
                    emit_padded_money(b, &cur, cents, true);
                    b.write_const_str(&cur, post_off, post_len);
                    st_struct(b, &e2, F_P3, cur.pos);

                    let one = b.imm(1);
                    let rem = b.bin(BinOp::Sub, remaining, one);
                    st_struct(b, &e2, F_P2, rem);
                    let zero2 = b.imm(0);
                    let more = b.bin(BinOp::GtU, rem, zero2);
                    b.if_then(more, |b| {
                        emit_pay_breq(b, &e2);
                    });
                });
            },
        );
    });
    b.halt();
    b.build().expect("quick-pay round assembles")
}

fn build_finish(pool: &mut ConstPool) -> Program {
    let (tail_off, tail_len) = pool.intern_str(TAIL);
    let (forb_off, forb_len) = pool.intern_str(FORBIDDEN);

    let mut b = ProgramBuilder::new("quick_pay_finish");
    let e = env(&mut b);
    let status = ld_struct(&mut b, &e, F_STATUS);
    let ok = b.un(UnOp::IsZero, status);
    let e2 = e;
    b.if_then_else(
        ok,
        move |b| {
            let pos = ld_struct(b, &e2, F_P3);
            let cur = rhythm_simt::ir::BufCursor {
                base: e2.resp.base,
                pos,
                elem_stride: e2.resp.es,
                lane_term: e2.resp.lane_term,
            };
            b.write_const_str(&cur, tail_off, tail_len);
            // Content-Length backpatch at the compile-time header offset.
            let body_len_start = b.imm(body_start());
            let body_len = b.bin(BinOp::Sub, cur.pos, body_len_start);
            let clen = b.imm(clen_pos());
            let patch = rhythm_simt::ir::BufCursor {
                base: e2.resp.base,
                pos: clen,
                elem_stride: e2.resp.es,
                lane_term: e2.resp.lane_term,
            };
            b.write_decimal(&patch, body_len, DECIMAL_SCRATCH);
            st_struct(b, &e2, F_RESP_LEN, cur.pos);
        },
        move |b| {
            let cur = e2.resp.cursor(b);
            b.write_const_str(&cur, forb_off, forb_len);
            let l = b.imm(forb_len);
            st_struct(b, &e2, F_RESP_LEN, l);
        },
    );
    b.halt();
    b.build().expect("quick-pay finish assembles")
}

/// Native reference implementation (one request).
pub fn handle_quickpay_native(
    token: u32,
    store: &BankStore,
    sessions: &mut SessionArrayHost,
) -> Vec<u8> {
    let Some(userid) = sessions.lookup(token) else {
        return FORBIDDEN.as_bytes().to_vec();
    };
    let payees = store.respond(BackendCmd::Payees, userid, &[]);
    let count: usize = payees.split('|').next().unwrap_or("0").parse().unwrap_or(0);

    let mut out = Vec::with_capacity(QUICKPAY_RESP_BYTES as usize);
    out.extend_from_slice(HEADER_PREFIX.as_bytes());
    out.extend_from_slice(b"Content-Length: ");
    let clen = out.len();
    out.extend_from_slice(b"          \n\n");
    let body = out.len();
    out.extend_from_slice(HEAD.as_bytes());
    for _ in 0..count {
        let pay = store.respond(BackendCmd::Pay, userid, &[]);
        let conf = crate::native::field_of(&pay, 1);
        let bal: u32 = crate::native::field_of(&pay, 2).parse().unwrap_or(0);
        out.extend_from_slice(ROW_PRE.as_bytes());
        out.extend_from_slice(conf.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(ROW_MID.as_bytes());
        out.extend_from_slice(crate::native::money(bal).as_bytes());
        out.push(b'\n');
        out.extend_from_slice(ROW_POST.as_bytes());
    }
    out.extend_from_slice(TAIL.as_bytes());
    let digits = (out.len() - body).to_string();
    out[clen..clen + digits.len()].copy_from_slice(digits.as_bytes());
    out
}

/// Run a quick-pay cohort: setup, then loop-stage launches until every
/// lane is done, then finish. Returns the responses and the number of
/// loop launches (the "variable number of kernel launches").
///
/// # Errors
///
/// Propagates kernel execution faults.
///
/// # Panics
///
/// Panics on an empty cohort.
pub fn run_quickpay_cohort(
    workload: &crate::kernels::Workload,
    qp: &QuickPay,
    store: &BankStore,
    sessions: &mut SessionArrayHost,
    tokens: &[u32],
    gpu: &rhythm_simt::gpu::Gpu,
    transposed: bool,
) -> Result<(Vec<Vec<u8>>, u32), rhythm_simt::ExecError> {
    use crate::layout::CohortLayout;
    use rhythm_simt::mem::DeviceMemory;

    assert!(!tokens.is_empty(), "empty quick-pay cohort");
    let cohort = tokens.len() as u32;
    let store_img = store.serialize_device();
    let layout = CohortLayout::new(
        cohort,
        QUICKPAY_RESP_BYTES,
        sessions.capacity(),
        sessions.salt(),
        store_img.len() as u32,
        transposed,
    );
    let mut mem = DeviceMemory::new(layout.total_bytes as usize);
    mem.load(layout.store_base, &store_img)?;
    mem.load(layout.session_base, &sessions.to_device_bytes())?;
    for (lane, &tok) in tokens.iter().enumerate() {
        layout.write_struct(&mut mem, lane as u32, F_TOKEN, tok)?;
    }
    let cfg = layout.launch_config();

    let pool = &workload.pool;
    gpu.launch(&qp.setup, &cfg, &mut mem, pool, &NoopRecorder)?;
    gpu.launch(&workload.backend, &cfg, &mut mem, pool, &NoopRecorder)?;

    let mut rounds = 0u32;
    loop {
        gpu.launch(&qp.round, &cfg, &mut mem, pool, &NoopRecorder)?;
        rounds += 1;
        let mut all_done = true;
        for lane in 0..cohort {
            let status = layout.read_struct(&mem, lane, F_STATUS)?;
            let remaining = layout.read_struct(&mem, lane, F_P2)?;
            if status == 0 && remaining > 0 {
                all_done = false;
                break;
            }
        }
        if all_done {
            break;
        }
        gpu.launch(&workload.backend, &cfg, &mut mem, pool, &NoopRecorder)?;
        assert!(rounds < 64, "quick-pay loop failed to converge");
    }
    gpu.launch(&qp.finish, &cfg, &mut mem, pool, &NoopRecorder)?;

    let mut responses = Vec::with_capacity(tokens.len());
    for lane in 0..cohort {
        let len = layout.read_struct(&mem, lane, F_RESP_LEN)?;
        let full = layout.read_lane(&mem, layout.resp_base, layout.resp_size, lane)?;
        responses.push(full[..len as usize].to_vec());
    }
    Ok((responses, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_http::padding::eq_modulo_padding;
    use rhythm_simt::gpu::{Gpu, GpuConfig};

    #[test]
    fn quickpay_kernels_build() {
        let mut pool = ConstPool::new();
        let qp = QuickPay::build(&mut pool);
        assert_eq!(qp.setup.name(), "quick_pay_setup");
        assert_eq!(qp.round.name(), "quick_pay_round");
        assert_eq!(qp.finish.name(), "quick_pay_finish");
    }

    #[test]
    fn quickpay_matches_native_with_variable_rounds() {
        let mut workload = crate::kernels::Workload::build();
        let qp = QuickPay::build(&mut workload.pool);
        let store = BankStore::generate(64, 31);
        let gpu = Gpu::new(GpuConfig::gtx_titan());

        let mut sessions = SessionArrayHost::new(256, 0x9A17);
        let mut tokens = Vec::new();
        for u in 0..32 {
            tokens.push(sessions.insert(u).unwrap());
        }

        let mut dev_sessions = sessions.clone();
        let (responses, rounds) = run_quickpay_cohort(
            &workload,
            &qp,
            &store,
            &mut dev_sessions,
            &tokens,
            &gpu,
            true,
        )
        .unwrap();

        // Rounds = max payee count + 1 (the first round only parses).
        let max_payees = (0..32)
            .map(|u| store.user(u).unwrap().payees.len() as u32)
            .max()
            .unwrap();
        assert_eq!(rounds, max_payees + 1, "variable launches follow data");

        // Mask the Content-Length digits: the kernel's padded body is
        // longer than the native body (both are self-consistent).
        let mask = |b: &[u8]| -> Vec<u8> {
            String::from_utf8_lossy(b)
                .lines()
                .map(|l| {
                    if l.starts_with("Content-Length:") {
                        "Content-Length: <masked>".to_string()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
                .into_bytes()
        };
        for (lane, &tok) in tokens.iter().enumerate() {
            let native = handle_quickpay_native(tok, &store, &mut sessions.clone());
            assert!(
                eq_modulo_padding(&mask(&responses[lane]), &mask(&native)),
                "lane {lane}\n--kernel--\n{}\n--native--\n{}",
                String::from_utf8_lossy(&responses[lane]),
                String::from_utf8_lossy(&native)
            );
        }
    }

    #[test]
    fn quickpay_bad_token_forbidden() {
        let mut workload = crate::kernels::Workload::build();
        let qp = QuickPay::build(&mut workload.pool);
        let store = BankStore::generate(8, 1);
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let mut sessions = SessionArrayHost::new(64, 0x11);
        let (responses, _) = run_quickpay_cohort(
            &workload,
            &qp,
            &store,
            &mut sessions,
            &[0xBAD_F00D],
            &gpu,
            false,
        )
        .unwrap();
        assert!(responses[0].starts_with(b"HTTP/1.1 403"));
    }
}
