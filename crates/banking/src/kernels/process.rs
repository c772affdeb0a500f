//! Compiler from [`PageSpec`] to process-stage kernels.
//!
//! A type with `n` backend accesses compiles to `n + 1` kernels:
//! stages `0..n` validate state and generate the backend request text;
//! stage `n` generates the padded HTML response. This mirrors the paper's
//! "n backend stages and n + 1 process stages" (§3.1); the backend itself
//! runs between stages (host model for Titan A, device kernel for B/C).

use rhythm_simt::ir::{BinOp, BufCursor, Program, ProgramBuilder, UnOp};
use rhythm_simt::mem::ConstPool;

use crate::layout::{F_BREQ_LEN, F_NEWTOKEN, F_P0, F_RESP_LEN, F_STATUS, F_TOKEN, F_USERID};
use crate::templates::{Action, ArgSrc, PageSpec, RowAction, FORBIDDEN, HEADER_PREFIX};

use super::common::{
    emit_copy_field_padded, emit_padded_decimal, emit_padded_money, emit_parse_field_u32,
    emit_session_insert, emit_session_lookup, emit_session_remove, env, ld_struct, st_struct, Env,
    DECIMAL_SCRATCH,
};

/// Compile every process stage for a page spec.
///
/// # Panics
///
/// Panics if the spec references a backend response other than the last
/// one in a response action (only the final backend response is resident
/// when the response stage runs), or if kernel assembly fails — both are
/// programming errors in the spec.
pub fn build_stage_kernels(spec: &PageSpec, pool: &mut ConstPool) -> Vec<Program> {
    build_stage_kernels_opts(spec, pool, true)
}

/// Like [`build_stage_kernels`] with the warp-alignment padding made
/// optional — `padded == false` is the ablation configuration of
/// DESIGN.md §5.3 (correct output, drifting lane write pointers).
///
/// # Panics
///
/// As [`build_stage_kernels`].
pub fn build_stage_kernels_opts(
    spec: &PageSpec,
    pool: &mut ConstPool,
    padded: bool,
) -> Vec<Program> {
    validate_spec(spec);
    let n = spec.backend.len();
    let mut out = Vec::with_capacity(n + 1);
    for stage in 0..n {
        out.push(compile_backend_stage(spec, stage));
    }
    out.push(compile_response_stage(spec, pool, padded));
    out
}

fn validate_spec(spec: &PageSpec) {
    let last = spec.backend.len().checked_sub(1);
    for a in &spec.actions {
        let req = match a {
            Action::PaddedField { req, .. }
            | Action::PaddedMoney { req, .. }
            | Action::Rows { req, .. } => Some(*req as usize),
            _ => None,
        };
        if let Some(r) = req {
            assert_eq!(
                Some(r),
                last,
                "{}: response actions may only reference the final backend response",
                spec.ty
            );
        }
    }
}

/// Stage `i < n`: session/previous-response validation plus backend
/// request generation.
fn compile_backend_stage(spec: &PageSpec, stage: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("{}_stage{stage}", spec.ty));
    let e = env(&mut b);

    if stage == 0 {
        emit_entry_validation(&mut b, &e, spec);
    } else {
        // A backend response from the previous stage is resident: flag
        // `ERR` replies.
        emit_backend_err_check(&mut b, &e);
    }

    // Generate the backend request text. Forbidden lanes still emit a
    // syntactically valid request for user F_USERID (= 0); their response
    // is discarded by the response stage (paper §4.4: error state is
    // carried per request, the pipeline shape is unchanged).
    let access = &spec.backend[stage];
    let cur = e.breq.cursor(&mut b);
    let cmd = b.imm(access.cmd.id());
    b.write_decimal(&cur, cmd, DECIMAL_SCRATCH);
    let pipe = b.imm(b'|' as u32);
    b.cursor_write_byte(&cur, pipe);
    let userid = ld_struct(&mut b, &e, F_USERID);
    b.write_decimal(&cur, userid, DECIMAL_SCRATCH);
    for arg in &access.args {
        b.cursor_write_byte(&cur, pipe);
        let v = match arg {
            ArgSrc::Param(i) => ld_struct(&mut b, &e, F_P0 + *i as u32),
        };
        b.write_decimal(&cur, v, DECIMAL_SCRATCH);
    }
    let nl = b.imm(b'\n' as u32);
    b.cursor_write_byte(&cur, nl);
    let nul = b.imm(0);
    b.cursor_write_byte(&cur, nul);
    st_struct(&mut b, &e, F_BREQ_LEN, cur.pos);
    b.halt();
    b.build().expect("backend stage assembles")
}

/// Entry validation for stage 0: login resolves its own user id; other
/// types look the session up; logout additionally tears it down.
fn emit_entry_validation(b: &mut ProgramBuilder, e: &Env, spec: &PageSpec) {
    if spec.creates_session {
        let userid = ld_struct(b, e, F_P0);
        st_struct(b, e, F_USERID, userid);
        let zero = b.imm(0);
        st_struct(b, e, F_STATUS, zero);
    } else {
        let token = ld_struct(b, e, F_TOKEN);
        emit_session_lookup(b, e, token);
        if spec.destroys_session {
            let status = ld_struct(b, e, F_STATUS);
            let ok = b.un(UnOp::IsZero, status);
            let e2 = *e;
            b.if_then(ok, move |b| {
                let token = ld_struct(b, &e2, F_TOKEN);
                emit_session_remove(b, &e2, token);
            });
        }
    }
}

/// Flag lanes whose resident backend response starts with `!` (the
/// `!ERR` reply) as forbidden.
fn emit_backend_err_check(b: &mut ProgramBuilder, e: &Env) {
    let status = ld_struct(b, e, F_STATUS);
    let ok = b.un(UnOp::IsZero, status);
    let e2 = *e;
    b.if_then(ok, move |b| {
        let zero = b.imm(0);
        let ch = e2.bresp.read_byte(b, zero);
        let e_ch = b.imm(b'!' as u32);
        let is_err = b.bin(BinOp::Eq, ch, e_ch);
        b.if_then(is_err, |b| {
            let one = b.imm(1);
            st_struct(b, &e2, F_STATUS, one);
        });
    });
}

/// The final stage: emit the padded HTML response (or the 403 page).
fn compile_response_stage(spec: &PageSpec, pool: &mut ConstPool, padded: bool) -> Program {
    let mut b = ProgramBuilder::new(format!("{}_response", spec.ty));
    let e = env(&mut b);

    if spec.backend.is_empty() {
        emit_entry_validation(&mut b, &e, spec);
    } else {
        emit_backend_err_check(&mut b, &e);
    }

    // Login: create the session once the backend authenticated the user.
    if spec.creates_session {
        let status = ld_struct(&mut b, &e, F_STATUS);
        let ok = b.un(UnOp::IsZero, status);
        let e2 = e;
        b.if_then(ok, move |b| {
            let userid = ld_struct(b, &e2, F_USERID);
            let token = emit_session_insert(b, &e2, userid);
            st_struct(b, &e2, F_NEWTOKEN, token);
            let full = b.un(UnOp::IsZero, token);
            b.if_then(full, |b| {
                let one = b.imm(1);
                st_struct(b, &e2, F_STATUS, one);
            });
        });
    }

    let status = ld_struct(&mut b, &e, F_STATUS);
    let ok = b.un(UnOp::IsZero, status);
    let spec2 = spec.clone();
    let (forb_off, forb_len) = pool.intern_str(FORBIDDEN);

    // Interning happens eagerly so both closures only capture offsets.
    let header = pool.intern_str(HEADER_PREFIX);
    let set_cookie = pool.intern_str("Set-Cookie: SID=");
    let clen = pool.intern_str("Content-Length: ");
    let blank10 = pool.intern_str("          ");
    let actions: Vec<CompiledAction> = spec
        .actions
        .iter()
        .map(|a| CompiledAction::intern(a, pool))
        .collect();

    let e2 = e;
    b.if_then_else(
        ok,
        move |b| {
            emit_page(
                b, &e2, &spec2, header, set_cookie, clen, blank10, &actions, padded,
            );
        },
        move |b| {
            let cur = e2.resp.cursor(b);
            b.write_const_str(&cur, forb_off, forb_len);
            let len = b.imm(forb_len);
            st_struct(b, &e2, F_RESP_LEN, len);
        },
    );
    b.halt();
    b.build().expect("response stage assembles")
}

/// An [`Action`] with its static strings interned into the const pool.
enum CompiledAction {
    Static(u32, u32),
    PaddedParam(u8),
    PaddedParamMoney(u8),
    PaddedToken,
    PaddedField(u8),
    PaddedMoney(u8),
    Rows {
        stride: u8,
        body: Vec<CompiledRowAction>,
    },
}

enum CompiledRowAction {
    Static(u32, u32),
    PaddedRowField(u8),
    PaddedRowMoney(u8),
    PaddedRowIndex,
}

impl CompiledAction {
    fn intern(a: &Action, pool: &mut ConstPool) -> Self {
        match a {
            Action::Static(s) => {
                let (o, l) = pool.intern_str(s);
                CompiledAction::Static(o, l)
            }
            Action::PaddedParam(i) => CompiledAction::PaddedParam(*i),
            Action::PaddedParamMoney(i) => CompiledAction::PaddedParamMoney(*i),
            Action::PaddedToken => CompiledAction::PaddedToken,
            Action::PaddedField { field, .. } => CompiledAction::PaddedField(*field),
            Action::PaddedMoney { field, .. } => CompiledAction::PaddedMoney(*field),
            Action::Rows { stride, body, .. } => CompiledAction::Rows {
                stride: *stride,
                body: body
                    .iter()
                    .map(|r| match r {
                        RowAction::Static(s) => {
                            let (o, l) = pool.intern_str(s);
                            CompiledRowAction::Static(o, l)
                        }
                        RowAction::PaddedRowField(i) => CompiledRowAction::PaddedRowField(*i),
                        RowAction::PaddedRowMoney(i) => CompiledRowAction::PaddedRowMoney(*i),
                        RowAction::PaddedRowIndex => CompiledRowAction::PaddedRowIndex,
                    })
                    .collect(),
            },
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_page(
    b: &mut ProgramBuilder,
    e: &Env,
    spec: &PageSpec,
    header: (u32, u32),
    set_cookie: (u32, u32),
    clen: (u32, u32),
    blank10: (u32, u32),
    actions: &[CompiledAction],
    padded: bool,
) {
    let cur = e.resp.cursor(b);

    // ---- header -----------------------------------------------------
    b.write_const_str(&cur, header.0, header.1);
    if spec.creates_session {
        b.write_const_str(&cur, set_cookie.0, set_cookie.1);
        let token = ld_struct(b, e, F_NEWTOKEN);
        emit_padded_decimal(b, &cur, token, padded);
    }
    b.write_const_str(&cur, clen.0, clen.1);
    let clen_pos = b.reg();
    b.mov(clen_pos, cur.pos);
    b.write_const_str(&cur, blank10.0, blank10.1);
    let nl = b.imm(b'\n' as u32);
    b.cursor_write_byte(&cur, nl);
    b.cursor_write_byte(&cur, nl);
    let body_start = b.reg();
    b.mov(body_start, cur.pos);

    // ---- body ----------------------------------------------------------
    for action in actions {
        emit_action(b, e, &cur, action, padded);
    }

    // ---- content-length backpatch ----------------------------------------
    let body_len = b.bin(BinOp::Sub, cur.pos, body_start);
    let patch_cur = BufCursor {
        base: cur.base,
        pos: clen_pos,
        elem_stride: cur.elem_stride,
        lane_term: cur.lane_term,
    };
    b.write_decimal(&patch_cur, body_len, DECIMAL_SCRATCH);
    st_struct(b, e, F_RESP_LEN, cur.pos);
}

fn emit_action(
    b: &mut ProgramBuilder,
    e: &Env,
    cur: &BufCursor,
    action: &CompiledAction,
    padded: bool,
) {
    match action {
        CompiledAction::Static(off, len) => b.write_const_str(cur, *off, *len),
        CompiledAction::PaddedParam(i) => {
            let v = ld_struct(b, e, F_P0 + *i as u32);
            emit_padded_decimal(b, cur, v, padded);
        }
        CompiledAction::PaddedParamMoney(i) => {
            let v = ld_struct(b, e, F_P0 + *i as u32);
            emit_padded_money(b, cur, v, padded);
        }
        CompiledAction::PaddedToken => {
            let v = ld_struct(b, e, F_TOKEN);
            emit_padded_decimal(b, cur, v, padded);
        }
        CompiledAction::PaddedField(field) => {
            let k = b.imm(*field as u32);
            emit_copy_field_padded(b, &e.bresp, k, cur, padded);
        }
        CompiledAction::PaddedMoney(field) => {
            let k = b.imm(*field as u32);
            let cents = emit_parse_field_u32(b, &e.bresp, k);
            emit_padded_money(b, cur, cents, padded);
        }
        CompiledAction::Rows { stride, body } => {
            let zero = b.imm(0);
            let count = emit_parse_field_u32(b, &e.bresp, zero);
            let stride_r = b.imm(*stride as u32);
            let one = b.imm(1);
            let e2 = *e;
            let cur2 = *cur;
            b.for_loop(count, |b, row| {
                // flat field base for this row = 1 + row * stride
                let rs = b.bin(BinOp::Mul, row, stride_r);
                let base_k = b.bin(BinOp::Add, rs, one);
                for ra in body {
                    match ra {
                        CompiledRowAction::Static(off, len) => {
                            b.write_const_str(&cur2, *off, *len);
                        }
                        CompiledRowAction::PaddedRowField(off) => {
                            let o = b.imm(*off as u32);
                            let k = b.bin(BinOp::Add, base_k, o);
                            emit_copy_field_padded(b, &e2.bresp, k, &cur2, padded);
                        }
                        CompiledRowAction::PaddedRowMoney(off) => {
                            let o = b.imm(*off as u32);
                            let k = b.bin(BinOp::Add, base_k, o);
                            let cents = emit_parse_field_u32(b, &e2.bresp, k);
                            emit_padded_money(b, &cur2, cents, padded);
                        }
                        CompiledRowAction::PaddedRowIndex => {
                            let r1 = b.bin(BinOp::Add, row, one);
                            emit_padded_decimal(b, &cur2, r1, padded);
                        }
                    }
                }
            });
        }
    }
}
