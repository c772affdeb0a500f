//! Property-based tests over the core invariants of the substrates.

use proptest::prelude::*;

use rhythm_banking::session_array::SessionArrayHost;
use rhythm_http::padding::{cohort_padding, eq_modulo_padding, next_pow2};
use rhythm_http::query::{url_decode, url_encode};
use rhythm_http::{HttpRequest, ResponseBuilder};
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::{scalar::execute_scalar, scalar::ScalarRun, LaunchConfig};
use rhythm_simt::ir::{BinOp, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_trace::myers::{is_supersequence, merge_pair};

proptest! {
    /// SCS merge: the merged sequence is a supersequence of both inputs,
    /// bounded by max(|a|,|b|) ≤ |merged| ≤ |a|+|b|, and the SCS length
    /// identity holds for exact merges.
    #[test]
    fn myers_merge_invariants(
        a in prop::collection::vec(0u32..8, 0..80),
        b in prop::collection::vec(0u32..8, 0..80),
    ) {
        let m = merge_pair(&a, &b, 400);
        prop_assert!(is_supersequence(&m.merged, &a));
        prop_assert!(is_supersequence(&m.merged, &b));
        prop_assert!(m.merged.len() >= a.len().max(b.len()));
        prop_assert!(m.merged.len() <= a.len() + b.len());
        if m.exact {
            prop_assert_eq!(m.merged.len(), a.len() + b.len() - m.lcs);
            prop_assert_eq!(m.lcs * 2 + m.distance, a.len() + b.len());
        }
    }

    /// Merging a sequence with itself is the identity.
    #[test]
    fn myers_self_merge_identity(a in prop::collection::vec(0u32..16, 0..200)) {
        let m = merge_pair(&a, &a, 4);
        prop_assert!(m.exact);
        prop_assert_eq!(m.merged, a.clone());
        prop_assert_eq!(m.distance, 0);
    }

    /// URL encoding round-trips through decoding for arbitrary strings.
    #[test]
    fn url_roundtrip(s in "[ -~]{0,64}") {
        let enc = url_encode(&s);
        prop_assert_eq!(url_decode(enc.as_bytes()).unwrap(), s);
    }

    /// The response builder's backpatched Content-Length always equals the
    /// actual body size.
    #[test]
    fn content_length_always_consistent(body in prop::collection::vec(any::<u8>(), 0..4096)) {
        let mut r = ResponseBuilder::new(200, "OK");
        r.reserve_content_length();
        r.finish_headers();
        r.write(&body);
        let out = r.finish();
        let parsed = rhythm_http::response::parsed_content_length(&out);
        prop_assert_eq!(parsed, Some(body.len()));
    }

    /// Parsing a generated GET request recovers the query parameters.
    #[test]
    fn http_parse_recovers_params(userid in 0u32..1_000_000, amount in 1u32..1_000_000) {
        let raw = format!(
            "GET /bank/transfer.php?userid={userid}&a={amount} HTTP/1.1\r\nHost: x\r\n\r\n"
        );
        let req = HttpRequest::parse(raw.as_bytes()).unwrap();
        prop_assert_eq!(req.params.get_u32("userid"), Some(userid));
        prop_assert_eq!(req.params.get_u32("a"), Some(amount));
    }

    /// Cohort padding: every padded width equals the maximum.
    #[test]
    fn padding_reaches_max(widths in prop::collection::vec(0usize..64, 1..40)) {
        let (max, pads) = cohort_padding(&widths);
        for (w, p) in widths.iter().zip(&pads) {
            prop_assert_eq!(w + p, max);
        }
    }

    /// Padding never changes content under the padding-equivalence.
    #[test]
    fn padding_preserves_content(lines in prop::collection::vec("[a-z]{0,12}", 1..10)) {
        let plain: Vec<u8> = lines.join("\n").into_bytes();
        let padded: Vec<u8> = lines
            .iter()
            .map(|l| format!("{l}{}", " ".repeat(17 - l.len().min(16))))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();
        prop_assert!(eq_modulo_padding(&plain, &padded));
    }

    /// next_pow2 is the least power of two ≥ n.
    #[test]
    fn next_pow2_minimal(n in 1usize..1_000_000) {
        let p = next_pow2(n);
        prop_assert!(p.is_power_of_two());
        prop_assert!(p >= n);
        prop_assert!(p / 2 < n);
    }

    /// Session array: tokens from inserts always look up to their user,
    /// and removal is precise.
    #[test]
    fn session_array_model(
        users in prop::collection::vec(0u32..100, 1..32),
        remove_mask in prop::collection::vec(any::<bool>(), 32),
    ) {
        let mut s = SessionArrayHost::new(64, 0x1234_5678);
        let toks: Vec<u32> = users.iter().map(|&u| s.insert(u).unwrap()).collect();
        for (t, u) in toks.iter().zip(&users) {
            prop_assert_eq!(s.lookup(*t), Some(*u));
        }
        let mut live = toks.len() as u32;
        for (i, t) in toks.iter().enumerate() {
            if remove_mask[i % remove_mask.len()] {
                prop_assert!(s.remove(*t));
                live -= 1;
            }
        }
        prop_assert_eq!(s.len(), live);
        // Device roundtrip preserves everything.
        let back = SessionArrayHost::from_device_bytes(&s.to_device_bytes(), 0x1234_5678);
        prop_assert_eq!(back.len(), live);
    }

    /// Scalar and SIMT executors agree on arbitrary arithmetic programs
    /// over arbitrary lane counts (a randomized differential test of the
    /// divergence stack).
    #[test]
    fn scalar_simt_agree_on_random_programs(
        lanes in 1u32..70,
        ops in prop::collection::vec((0u32..6, 1u32..50), 1..8),
    ) {
        // Build: each (op, k) folds the accumulator with a data-dependent
        // branch so different lanes diverge.
        let mut b = ProgramBuilder::new("rand");
        let gid = b.global_id();
        let acc = b.reg();
        b.mov(acc, gid);
        for &(sel, k) in &ops {
            let kr = b.imm(k);
            match sel {
                0 => { b.bin_into(acc, BinOp::Add, acc, kr); }
                1 => { b.bin_into(acc, BinOp::Mul, acc, kr); }
                2 => { b.bin_into(acc, BinOp::Xor, acc, kr); }
                3 => {
                    // divergent if: acc odd → add k else sub k
                    let one = b.imm(1);
                    let odd = b.bin(BinOp::And, acc, one);
                    b.if_then_else(
                        odd,
                        |b| b.bin_into(acc, BinOp::Add, acc, kr),
                        |b| b.bin_into(acc, BinOp::Sub, acc, kr),
                    );
                }
                4 => {
                    // data-dependent loop: acc % 4 iterations
                    let four = b.imm(4);
                    let n = b.bin(BinOp::RemU, acc, four);
                    let one = b.imm(1);
                    b.for_loop(n, |b, _| {
                        b.bin_into(acc, BinOp::Add, acc, one);
                    });
                }
                _ => { b.bin_into(acc, BinOp::Shr, acc, kr); }
            }
        }
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, gid, four);
        b.st_global_word(addr, 0, acc);
        b.halt();
        let p = b.build().unwrap();

        let pool = ConstPool::new();
        let mut mem_simt = DeviceMemory::new(lanes as usize * 4);
        execute_simt(&p, &LaunchConfig::new(lanes, []), &mut mem_simt, &pool, &NoopRecorder).unwrap();

        let mut mem_scalar = DeviceMemory::new(lanes as usize * 4);
        let cfg = LaunchConfig::new(1, []);
        for id in 0..lanes {
            execute_scalar(&ScalarRun::new(&p, id), &cfg, &mut mem_scalar, &pool, None).unwrap();
        }
        prop_assert_eq!(mem_simt.as_bytes(), mem_scalar.as_bytes());
    }
}
