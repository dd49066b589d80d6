//! Property tests for the two-hart litmus generator.
//!
//! Litmus programs must be *self-contained*: every store lands in the
//! per-round sandbox blocks, each hart's result cells are disjoint from
//! its partner's, and the bounded spins guarantee forward progress even
//! with a hart missing entirely. Each hart's path must also decode and
//! run identically on all five REF interpreter personalities, and
//! `emit_subset` must preserve exactly the kept rounds — these are the
//! properties the campaign's ddmin minimizer and the outcome oracle
//! lean on.

use nemu::registry::PERSONALITIES;
use nemu::Interpreter;
use proptest::prelude::*;
use workloads::litmus::{
    status, LitmusConfig, LitmusExit, LitmusProgram, LitmusShape, GO_OFF, GO_TOKEN, RES_OFF,
    ROUND_STRIDE, SANDBOX, VAL1, X_OFF, Y_OFF,
};
use riscv_isa::asm::Program;
use riscv_isa::mem::PhysMem;

const FUEL: u64 = 8_000_000;

/// Build a personality engine for `hartid` with the program loaded.
fn engine(pers_idx: usize, p: &Program, hartid: u64) -> Box<dyn Interpreter> {
    let mut e = (PERSONALITIES[pers_idx].build)(p);
    e.hart_mut().state.csr.mhartid = hartid;
    e
}

fn cell(e: &mut Box<dyn Interpreter>, round: usize, off: i64) -> u64 {
    let addr = (SANDBOX + round as i64 * ROUND_STRIDE + off) as u64;
    e.mem_mut().read_uint(addr, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hart 0 alone writes exactly the go/x/y cells of every round —
    /// nothing else in the sandbox — and times out cleanly; hart 1
    /// alone writes exactly the result cells. The two write sets are
    /// disjoint, so the result regions can never race each other.
    #[test]
    fn mp_programs_are_self_contained(seed in any::<u64>(), rounds in 1usize..=2, fenced in any::<bool>()) {
        let cfg = LitmusConfig { shape: LitmusShape::Mp, fenced, rounds, ..LitmusConfig::default() };
        let prog = LitmusProgram::generate(seed, &cfg);
        let p = prog.emit();

        // Hart 0 alone: no partner result ever arrives.
        let mut h0 = engine(0, &p, 0);
        let r = h0.run(FUEL);
        let code = r.exit_code.expect("hart 0 halts on bounded spins");
        prop_assert_eq!(LitmusExit::decode(code).status, status::SYNC_TIMEOUT);
        for k in 0..prog.len() {
            prop_assert_eq!(cell(&mut h0, k, GO_OFF), GO_TOKEN as u64, "round {} go", k);
            prop_assert_eq!(cell(&mut h0, k, X_OFF), VAL1 as u64, "round {} x", k);
            prop_assert_eq!(cell(&mut h0, k, Y_OFF), VAL1 as u64, "round {} y", k);
            prop_assert_eq!(cell(&mut h0, k, RES_OFF), 0, "round {} res", k);
        }
        // Guard bands outside the sandbox stay untouched.
        let end = prog.len() as i64 * ROUND_STRIDE;
        for off in [-64i64, -8, end, end + 64] {
            prop_assert_eq!(cell(&mut h0, 0, off), 0, "wild store at sandbox{:+}", off);
        }

        // Hart 1 alone: go spin exhausts, zeros observed, result posted.
        let mut h1 = engine(0, &p, 1);
        let r = h1.run(FUEL);
        prop_assert_eq!(r.exit_code, Some(0));
        for k in 0..prog.len() {
            prop_assert_eq!(cell(&mut h1, k, GO_OFF), 0, "round {} go (h1)", k);
            prop_assert_eq!(cell(&mut h1, k, X_OFF), 0, "round {} x (h1)", k);
            prop_assert_eq!(cell(&mut h1, k, Y_OFF), 0, "round {} y (h1)", k);
            prop_assert_eq!(cell(&mut h1, k, RES_OFF), 1 << 16, "round {} res (h1)", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shape's program decodes and runs identically on all five
    /// interpreter personalities, for both hart paths: same exit code, same
    /// retired-instruction count.
    #[test]
    fn programs_agree_on_all_personalities(seed in any::<u64>(), shape_idx in 0usize..8, fenced in any::<bool>()) {
        prop_assert!(PERSONALITIES.len() >= 5, "personality registry lost a tier");
        let cfg = LitmusConfig {
            shape: LitmusShape::ALL[shape_idx],
            fenced,
            rounds: 1,
            lrsc_iters: 2,
            ..LitmusConfig::default()
        };
        let p = LitmusProgram::generate(seed, &cfg).emit();
        for hartid in [0u64, 1] {
            let mut first = engine(0, &p, hartid);
            let r0 = first.run(FUEL);
            prop_assert!(r0.exit_code.is_some(), "hart {} did not halt under {}", hartid, PERSONALITIES[0].name);
            for idx in 1..PERSONALITIES.len() {
                let mut e = engine(idx, &p, hartid);
                let r = e.run(FUEL);
                prop_assert_eq!(r.exit_code, r0.exit_code, "hart {} exit under {}", hartid, PERSONALITIES[idx].name);
                prop_assert_eq!(r.instructions, r0.instructions, "hart {} instret under {}", hartid, PERSONALITIES[idx].name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `emit_subset` keeps exactly the masked rounds: an all-true mask
    /// reproduces `emit()` byte for byte, and a partial mask's program
    /// touches the kept rounds' blocks and leaves dropped blocks zero —
    /// the invariant ddmin relies on when it shrinks a failing mask.
    #[test]
    fn emit_subset_preserves_kept_rounds(seed in any::<u64>(), rounds in 2usize..=3, mask_bits in any::<u64>()) {
        let cfg = LitmusConfig { shape: LitmusShape::Mp, rounds, ..LitmusConfig::default() };
        let prog = LitmusProgram::generate(seed, &cfg);
        let all = vec![true; prog.len()];
        prop_assert_eq!(prog.emit_subset(&all).bytes, prog.emit().bytes);

        let keep: Vec<bool> = (0..prog.len()).map(|k| mask_bits >> k & 1 == 1).collect();
        let p = prog.emit_subset(&keep);
        let mut h0 = engine(0, &p, 0);
        let r = h0.run(FUEL);
        let expected = if keep.iter().any(|&b| b) { status::SYNC_TIMEOUT } else { status::OK };
        prop_assert_eq!(LitmusExit::decode(r.exit_code.expect("halts")).status, expected);
        for (k, &kept) in keep.iter().enumerate() {
            let want = if kept { GO_TOKEN as u64 } else { 0 };
            prop_assert_eq!(cell(&mut h0, k, GO_OFF), want, "round {} kept={}", k, kept);
            let want_x = if kept { VAL1 as u64 } else { 0 };
            prop_assert_eq!(cell(&mut h0, k, X_OFF), want_x, "round {} x kept={}", k, kept);
        }
    }
}
