//! Differential test of the column-form `Encoder` against the row-form
//! encoder it replaced: one XOR combination of message bits per parity
//! equation, evaluated with a GF(2) dot product.

use gf2::{BitVec, SparseMatrix};
use ldpc_core::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
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
    CASE.get_or_init(|| {
        let code = demo_code();
        let encoder = Arc::new(Encoder::new(&code).unwrap());
        Case::new(code, encoder)
    })
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
        let code = LdpcCode::from_parity_check("AR4JA r=1/2 M=32, rotated", h).unwrap();
        let encoder = Arc::new(Encoder::new(&code).unwrap());
        Case::new(code, encoder)
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
    fn ar4ja_column_form_matches_row_form(
        words in prop::collection::vec(any::<u64>(), 1..8),
        density in any::<u8>(),
    ) {
        check(ar4ja(), &words, density);
    }
}
