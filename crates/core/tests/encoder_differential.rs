//! Differential test of `Encoder` against the row-form encoder the
//! column form replaced: one XOR combination of message bits per parity
//! equation, evaluated with a GF(2) dot product.
//!
//! The cases cover both encoder forms. Quasi-cyclic codes whose message
//! starts with whole circulant blocks take the carry-less circulant form
//! on a CPU with PCLMULQDQ — C2 (Z = 511), two random C2-like codes
//! (Z = 45 and Z = 130, neither a multiple of 64) and AR4JA r=1/2 in its
//! native column order — while the demo code and the rotated AR4JA code
//! keep the column form; `every_case_takes_its_expected_form` pins
//! which. The case count honours the `PROPTEST_CASES` environment
//! variable (default 48).

use gf2::{BitVec, SparseMatrix};
use ldpc_core::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
use ldpc_core::codes::{ccsds_c2, small::demo_code, small::random_c2_like};
use ldpc_core::{Encoder, LdpcCode};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The row-form reference: the same RREF as `Encoder::new`, kept as one
/// message-bit combination per pivot row.
struct RowForm {
    n: usize,
    info_cols: Vec<usize>,
    pivot_cols: Vec<usize>,
    combos: Vec<BitVec>,
}

impl RowForm {
    fn new(code: &LdpcCode) -> Self {
        let (n, m) = (code.n(), code.n_checks());
        let order: Vec<usize> = (n - m..n).chain(0..n - m).collect();
        let rref = code.h().to_dense().rref_with_column_order(&order);
        let info_cols = rref.free_cols();
        let mut msg_index = vec![usize::MAX; n];
        for (j, &c) in info_cols.iter().enumerate() {
            msg_index[c] = j;
        }
        let combos = rref
            .pivot_cols
            .iter()
            .enumerate()
            .map(|(row, &pc)| {
                let mut combo = BitVec::zeros(info_cols.len());
                for c in rref.matrix.row(row).iter_ones().filter(|&c| c != pc) {
                    combo.set(msg_index[c], true);
                }
                combo
            })
            .collect();
        Self {
            n,
            info_cols,
            pivot_cols: rref.pivot_cols,
            combos,
        }
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        let mut cw = BitVec::zeros(self.n);
        for (j, &c) in self.info_cols.iter().enumerate() {
            if message.get(j) {
                cw.set(c, true);
            }
        }
        for (eq, &pc) in self.combos.iter().zip(&self.pivot_cols) {
            if eq.dot(message) {
                cw.set(pc, true);
            }
        }
        cw
    }
}

/// A code under test with its encoder and row-form reference, built once.
struct Case {
    code: Arc<LdpcCode>,
    encoder: Arc<Encoder>,
    reference: RowForm,
}

impl Case {
    fn new(code: Arc<LdpcCode>, encoder: Arc<Encoder>) -> Self {
        let reference = RowForm::new(&code);
        Self {
            code,
            encoder,
            reference,
        }
    }
}

fn demo() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| case(demo_code()))
}

/// Builds a case from a code and a fresh encoder.
fn case(code: Arc<LdpcCode>) -> Case {
    let encoder = Arc::new(Encoder::new(&code).unwrap());
    Case::new(code, encoder)
}

fn c2() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| Case::new(ccsds_c2::code(), ccsds_c2::encoder()))
}

/// The AR4JA rate-1/2 code with its five block columns rotated by one
/// block (the punctured block comes first). Every AR4JA lifting in its
/// native column order has a full-rank parity region and so a prefix of
/// message positions; in this order column 0 is a pivot, so the message
/// has no leading run at all and every bit is placed one by one.
fn ar4ja() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| {
        let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 32, 1);
        let h = ar4ja.code().h();
        let (n, m) = (h.cols(), ar4ja.circulant_size());
        let rotated: Vec<(usize, usize)> =
            h.iter_entries().map(|(r, c)| (r, (c + m) % n)).collect();
        let h = SparseMatrix::from_entries(h.rows(), n, &rotated);
        case(LdpcCode::from_parity_check("AR4JA r=1/2 M=32, rotated", h).unwrap())
    })
}

/// A random C2-like code (2×6 blocks) at Z = 45: four whole message
/// blocks in one word each, then two message bits in the parity region.
fn qc45() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| case(random_c2_like(0, 45, 6)))
}

/// A random C2-like code (2×6 blocks) at Z = 130: four whole message
/// blocks of three words each, then three message bits in the parity
/// region.
fn qc130() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| case(random_c2_like(2, 130, 6)))
}

/// The AR4JA rate-1/2 code in its native column order: the message is
/// exactly the first two blocks, with no bit past them.
fn ar4ja_native() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| case(Ar4jaCode::build(Ar4jaRate::Half, 32, 1).code().clone()))
}

/// A message of the encoder's dimension from `words`, repeated to fill it.
fn message(k: usize, words: &[u64], density: u8) -> BitVec {
    let mut words: Vec<u64> = words.iter().cycle().take(k.div_ceil(64)).copied().collect();
    // Thin the message so sparse and dense messages both occur.
    for (i, w) in words.iter_mut().enumerate() {
        match density % 3 {
            0 => *w &= w.rotate_left(i as u32 + 7),
            1 => {}
            _ => *w |= w.rotate_left(i as u32 + 13),
        }
    }
    BitVec::from_words(k, words)
}

fn check(case: &Case, words: &[u64], density: u8) {
    let k = case.encoder.dimension();
    let msg = message(k, words, density);
    let cw = case.encoder.encode(&msg).unwrap();
    assert!(case.code.is_codeword(&cw), "H·c ≠ 0");
    assert_eq!(case.encoder.extract_message(&cw), msg);
    assert_eq!(cw, case.reference.encode(&msg));
}

#[test]
fn cases_cover_prefix_and_non_prefix_info_columns() {
    assert!(demo().encoder.dimension() > 0);
    // C2: 7154 leading message bits, then two in the parity region.
    let c2_info = c2().encoder.info_positions();
    assert!(c2_info[..7154]
        .iter()
        .enumerate()
        .all(|(j, &c)| c as usize == j));
    assert!(!c2().encoder.is_systematic_prefix());
    let ar4ja = &ar4ja().encoder;
    assert!(!ar4ja.is_systematic_prefix());
    assert_ne!(ar4ja.info_positions()[0], 0, "no leading run");
}

/// The form a quasi-cyclic code with a whole-block message prefix takes
/// on this host.
fn circulant_form() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        return "clmul";
    }
    "columns"
}

#[test]
fn every_case_takes_its_expected_form() {
    let clmul = circulant_form();
    for (name, case, form) in [
        ("demo", demo(), "columns"),
        ("c2", c2(), clmul),
        ("random QC Z=45", qc45(), clmul),
        ("random QC Z=130", qc130(), clmul),
        ("AR4JA native", ar4ja_native(), clmul),
        ("AR4JA rotated", ar4ja(), "columns"),
    ] {
        assert_eq!(case.encoder.form(), form, "{name}");
    }
    // The whole-block prefixes and the bits past them.
    let prefix = |case: &Case| {
        let info = case.encoder.info_positions();
        let run = info
            .iter()
            .enumerate()
            .take_while(|&(j, &c)| c as usize == j);
        (run.count(), info.len())
    };
    assert_eq!(prefix(qc45()), (180, 182));
    assert_eq!(prefix(qc130()), (520, 523));
    assert_eq!(prefix(ar4ja_native()), (64, 64));
}

/// Case count: `PROPTEST_CASES` env override, else 48.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn demo_column_form_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(demo(), &words, density);
    }

    #[test]
    fn c2_column_form_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(c2(), &words, density);
    }

    #[test]
    fn qc45_encoder_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(qc45(), &words, density);
    }

    #[test]
    fn qc130_encoder_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(qc130(), &words, density);
    }

    #[test]
    fn ar4ja_native_encoder_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(ar4ja_native(), &words, density);
    }

    #[test]
    fn ar4ja_column_form_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(ar4ja(), &words, density);
    }
}
