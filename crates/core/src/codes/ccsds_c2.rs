//! The CCSDS C2 near-earth (8176, 7156) quasi-cyclic LDPC code.
//!
//! As specified in CCSDS 131.1-O-2 (*Low Density Parity Check Codes for Use
//! in Near-Earth and Deep Space Applications*, Orange Book, Sept. 2007) and
//! used by the paper: the parity-check matrix is a 2×16 array of 511×511
//! circulants, each of row (and column) weight two, giving a 1022×8176
//! matrix with 32 704 ones, total row weight 32 and column weight 4
//! (paper §2.2, Figure 2).
//!
//! H has rank 1020 (two dependent rows), so the code dimension is
//! 8176 − 1020 = 7156, matching the paper's (8176, 7156) description. The
//! CCSDS encoding profile transmits [`K_INFO`] = 7154 information bits and
//! pins the two remaining degrees of freedom to zero.
//!
//! The expanded code and its encoder are expensive to construct
//! (Gaussian elimination on the dense 1022×8176 matrix), so both are cached
//! behind [`code()`] and [`encoder()`].

use crate::{Encoder, LdpcCode, QcLdpcSpec};
use std::sync::{Arc, OnceLock};

/// Code length in bits.
pub const N: usize = 8176;
/// Number of parity-check rows (2 × 511; rank is 1020).
pub const M_CHECKS: usize = 1022;
/// Circulant (sub-matrix) dimension.
pub const CIRCULANT_SIZE: usize = 511;
/// Block rows of circulants.
pub const BLOCK_ROWS: usize = 2;
/// Block columns of circulants.
pub const BLOCK_COLS: usize = 16;
/// True code dimension `n − rank(H)`.
pub const K_DIM: usize = 7156;
/// Information bits per frame in the CCSDS encoding profile.
pub const K_INFO: usize = 7154;
/// Number of ones of H (messages exchanged per decoding iteration;
/// the paper's "more than 32k messages").
pub const EDGES: usize = 32_704;

/// First-row one positions of the 32 circulants, `TABLE[r][c]`, from the
/// CCSDS specification: each 511×511 circulant has exactly two ones per row.
pub const TABLE: [[[u32; 2]; BLOCK_COLS]; BLOCK_ROWS] = [
    [
        [0, 176],
        [12, 239],
        [0, 352],
        [24, 431],
        [0, 392],
        [151, 409],
        [0, 351],
        [9, 359],
        [0, 307],
        [53, 329],
        [0, 207],
        [18, 281],
        [0, 399],
        [202, 457],
        [0, 247],
        [36, 261],
    ],
    [
        [99, 471],
        [130, 473],
        [198, 435],
        [260, 478],
        [215, 420],
        [282, 481],
        [48, 396],
        [193, 445],
        [273, 430],
        [302, 451],
        [96, 379],
        [191, 386],
        [244, 467],
        [364, 470],
        [51, 382],
        [192, 414],
    ],
];

/// The quasi-cyclic block description of the parity-check matrix.
///
/// ```
/// let spec = ldpc_core::codes::ccsds_c2::spec();
/// assert_eq!(spec.rows(), 1022);
/// assert_eq!(spec.cols(), 8176);
/// ```
pub fn spec() -> QcLdpcSpec {
    let first_rows: Vec<Vec<Vec<u32>>> = TABLE
        .iter()
        .map(|row| row.iter().map(|pair| pair.to_vec()).collect())
        .collect();
    QcLdpcSpec::from_first_rows(CIRCULANT_SIZE, &first_rows)
}

/// The expanded C2 code, constructed once per process and shared.
///
/// ```
/// let code = ldpc_core::codes::ccsds_c2::code();
/// assert_eq!(code.n(), 8176);
/// assert_eq!(code.graph().n_edges(), 32_704);
/// ```
pub fn code() -> Arc<LdpcCode> {
    static CODE: OnceLock<Arc<LdpcCode>> = OnceLock::new();
    CODE.get_or_init(|| {
        LdpcCode::from_qc_spec("CCSDS C2 (8176,7156)", spec())
            .expect("C2 construction is statically valid")
    })
    .clone()
}

/// The systematic encoder for the C2 code, constructed once and shared.
///
/// Building it performs Gaussian elimination on the dense 1022×8176 matrix,
/// which takes a moment; every later call is free. On an `x86_64` CPU
/// with PCLMULQDQ it encodes in the circulant form (`form() == "clmul"`):
/// the two 511-bit parity blocks are 28 carry-less products of the 14
/// message blocks, and message bits 7154 and 7155 (columns 7664 and
/// 8175) are patched in. Elsewhere it keeps the column form; both give
/// the same codeword (see [`Encoder`]).
pub fn encoder() -> Arc<Encoder> {
    static ENC: OnceLock<Arc<Encoder>> = OnceLock::new();
    ENC.get_or_init(|| Arc::new(Encoder::new(&code()).expect("C2 has positive dimension")))
        .clone()
}

/// Encodes a CCSDS frame of [`K_INFO`] information bits.
///
/// The code dimension is [`K_DIM`] = [`K_INFO`] + 2; the CCSDS profile pins
/// the two extra degrees of freedom (which fall in the parity region of the
/// matrix) to zero. `info` bytes are interpreted as bits (non-zero = 1).
///
/// # Errors
///
/// Returns [`crate::EncodeError::MessageLength`] if
/// `info.len() != K_INFO`.
pub fn encode_frame(info: &[u8]) -> Result<gf2::BitVec, crate::EncodeError> {
    if info.len() != K_INFO {
        return Err(crate::EncodeError::MessageLength {
            expected: K_INFO,
            actual: info.len(),
        });
    }
    let enc = encoder();
    // Message layout: the encoder's free columns, ascending. The first
    // K_INFO free columns are the systematic information positions; any
    // remaining free columns are pinned to zero by the profile.
    let mut message = vec![0u8; enc.dimension()];
    message[..K_INFO].copy_from_slice(info);
    enc.encode_bits(&message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::BitVec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn table_has_distinct_in_range_positions() {
        for row in &TABLE {
            for pair in row {
                assert!(pair[0] < pair[1], "positions must be distinct and sorted");
                assert!((pair[1] as usize) < CIRCULANT_SIZE);
            }
        }
    }

    #[test]
    fn structure_matches_paper_section_2_2() {
        let code = code();
        let h = code.h();
        assert_eq!(h.rows(), M_CHECKS);
        assert_eq!(h.cols(), N);
        assert_eq!(h.nnz(), EDGES);
        // "The total row weight of the parity check matrix is 2 × 16, or 32."
        for r in 0..h.rows() {
            assert_eq!(h.row_weight(r), 32, "row {r}");
        }
        // "The total column weight of the parity check matrix is four."
        for (c, w) in h.col_weights().into_iter().enumerate() {
            assert_eq!(w, 4, "col {c}");
        }
    }

    #[test]
    fn rank_gives_8176_7156_code() {
        let code = code();
        assert_eq!(code.rank(), 1020);
        assert_eq!(code.dimension(), K_DIM);
        assert!((code.rate() - K_DIM as f64 / N as f64).abs() < 1e-12);
    }

    #[test]
    fn encoder_is_systematic_in_information_region() {
        let enc = encoder();
        assert_eq!(enc.dimension(), K_DIM);
        // The first K_INFO free columns are exactly 0..K_INFO: the code is
        // systematic in the information region, as the CCSDS profile needs.
        let info_region: Vec<u32> = enc.info_positions()[..K_INFO].to_vec();
        assert_eq!(info_region, (0..K_INFO as u32).collect::<Vec<_>>());
        // The two surplus degrees of freedom live in the parity region.
        for &c in &enc.info_positions()[K_INFO..] {
            assert!((c as usize) >= N - M_CHECKS);
        }
    }

    #[test]
    fn encode_frame_roundtrip_and_validity() {
        let mut rng = StdRng::seed_from_u64(0xC2);
        let info: Vec<u8> = (0..K_INFO).map(|_| rng.gen_range(0..2u8)).collect();
        let cw = encode_frame(&info).unwrap();
        assert_eq!(cw.len(), N);
        assert!(code().is_codeword(&cw));
        // Systematic: information bits appear in the first K_INFO positions.
        for (i, &b) in info.iter().enumerate() {
            assert_eq!(u8::from(cw.get(i)), b, "info bit {i}");
        }
    }

    #[test]
    fn encode_frame_rejects_wrong_length() {
        assert!(encode_frame(&[0u8; 10]).is_err());
    }

    #[test]
    fn zero_frame_encodes_to_zero() {
        let cw = encode_frame(&vec![0u8; K_INFO]).unwrap();
        assert!(cw.is_zero());
        assert!(code().is_codeword(&BitVec::zeros(N)));
    }

    #[test]
    fn girth_is_at_least_six() {
        // The CCSDS construction avoids 4-cycles; sample a few bit nodes.
        let code = code();
        let g = code.graph().girth_from(&[0, 100, 511, 4000, 8175]);
        if let Some(girth) = g {
            assert!(girth >= 6, "found girth {girth} < 6");
        }
    }
}
