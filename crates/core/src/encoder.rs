//! Systematic encoding via reduced row-echelon form of the parity-check
//! matrix.

use crate::{EncodeError, LdpcCode};
use gf2::BitVec;
use std::fmt;

/// A systematic encoder derived from the parity-check matrix.
///
/// Construction reduces H to reduced row-echelon form, **preferring pivots
/// in the last `m` columns** (the parity region of a systematic code). The
/// remaining *free* columns carry the message; each pivot column is then a
/// parity bit equal to a fixed XOR combination of message bits.
///
/// The combinations are stored column by column: message bit `j` owns a
/// `⌈rank/64⌉`-word mask of the parity bits it feeds, so encoding XORs the
/// masks of the message's set bits into one parity accumulator. The
/// leading run of message bits that sit at their own index
/// (`info_positions()[j] == j`) is copied into the codeword word by word.
///
/// For the CCSDS C2 code all 1020 pivots land in the last 1022 columns, so
/// the first 7154 positions are systematic information bits and the code
/// matches the CCSDS transmission profile (see
/// [`codes::ccsds_c2::encode_frame`](crate::codes::ccsds_c2::encode_frame)).
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::Encoder;
///
/// # fn main() -> Result<(), ldpc_core::EncodeError> {
/// let code = demo_code();
/// let enc = Encoder::new(&code)?;
/// let msg = vec![1u8; enc.dimension()];
/// let cw = enc.encode_bits(&msg)?;
/// assert!(code.is_codeword(&cw));
/// # Ok(())
/// # }
/// ```
pub struct Encoder {
    n: usize,
    /// Free (message-carrying) columns, ascending. Length = dimension k.
    info_cols: Vec<u32>,
    /// Length of the leading run `info_cols[j] == j`.
    prefix_len: usize,
    /// Pivot column of each parity equation.
    pivot_cols: Vec<u32>,
    /// Words per parity mask: `⌈rank/64⌉`.
    parity_words: usize,
    /// Column-major parity map: words `j·parity_words ..` hold the parity
    /// equations (bit `r` = equation `r`) that message bit `j` enters.
    parity_map: Vec<u64>,
}

impl Encoder {
    /// Builds the encoder for a code.
    ///
    /// This performs dense Gaussian elimination on H — O(m²·n/64) — which
    /// for the C2 code takes a fraction of a second. Cache the encoder if
    /// you encode many frames (see
    /// [`codes::ccsds_c2::encoder`](crate::codes::ccsds_c2::encoder)).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::ZeroDimension`] if H has full column rank.
    pub fn new(code: &LdpcCode) -> Result<Self, EncodeError> {
        let n = code.n();
        let m = code.n_checks();
        let dense = code.h().to_dense();
        // Pivot priority: parity region (last m columns) first, then the
        // information region left-to-right.
        let order: Vec<usize> = (n.saturating_sub(m)..n)
            .chain(0..n.saturating_sub(m))
            .collect();
        let rref = dense.rref_with_column_order(&order);
        let rank = rref.rank();
        if rank >= n {
            return Err(EncodeError::ZeroDimension);
        }
        let info_cols: Vec<u32> = rref.free_cols().into_iter().map(|c| c as u32).collect();
        let k = info_cols.len();
        let prefix_len = info_cols
            .iter()
            .enumerate()
            .take_while(|&(j, &c)| c as usize == j)
            .count();
        // Map column index -> message position for O(1) map construction.
        let mut msg_index = vec![u32::MAX; n];
        for (j, &c) in info_cols.iter().enumerate() {
            msg_index[c as usize] = j as u32;
        }
        let parity_words = rank.div_ceil(64);
        let mut parity_map = vec![0u64; k * parity_words];
        let mut pivot_cols = Vec::with_capacity(rank);
        for (row_idx, &pc) in rref.pivot_cols.iter().enumerate() {
            pivot_cols.push(pc as u32);
            let (word, bit) = (row_idx / 64, 1u64 << (row_idx % 64));
            for c in rref.matrix.row(row_idx).iter_ones() {
                if c != pc {
                    let j = msg_index[c];
                    debug_assert_ne!(j, u32::MAX, "non-pivot column must be free");
                    parity_map[j as usize * parity_words + word] |= bit;
                }
            }
        }
        Ok(Self {
            n,
            info_cols,
            prefix_len,
            pivot_cols,
            parity_words,
            parity_map,
        })
    }

    /// Code length n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension k (message length).
    pub fn dimension(&self) -> usize {
        self.info_cols.len()
    }

    /// The message-carrying codeword positions, ascending.
    pub fn info_positions(&self) -> &[u32] {
        &self.info_cols
    }

    /// Returns `true` if the message occupies a contiguous prefix
    /// `0..dimension()` of the codeword.
    pub fn is_systematic_prefix(&self) -> bool {
        self.prefix_len == self.dimension()
    }

    /// Encodes a message given as a [`BitVec`] of length
    /// [`dimension()`](Self::dimension).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::MessageLength`] on length mismatch.
    pub fn encode(&self, message: &BitVec) -> Result<BitVec, EncodeError> {
        if message.len() != self.dimension() {
            return Err(EncodeError::MessageLength {
                expected: self.dimension(),
                actual: message.len(),
            });
        }
        let msg = message.words();
        let pw = self.parity_words;
        let mut parity = vec![0u64; pw];
        for (wi, &word) in msg.iter().enumerate() {
            let mut ones = word;
            while ones != 0 {
                let j = wi * 64 + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                let column = &self.parity_map[j * pw..(j + 1) * pw];
                for (p, c) in parity.iter_mut().zip(column) {
                    *p ^= c;
                }
            }
        }
        let mut cw = vec![0u64; self.n.div_ceil(64)];
        let (full, rem) = (self.prefix_len / 64, self.prefix_len % 64);
        cw[..full].copy_from_slice(&msg[..full]);
        if rem > 0 {
            cw[full] = msg[full] & ((1u64 << rem) - 1);
        }
        let mut set = |c: usize| cw[c / 64] |= 1u64 << (c % 64);
        for (j, &c) in self.info_cols.iter().enumerate().skip(self.prefix_len) {
            if message.get(j) {
                set(c as usize);
            }
        }
        for (wi, &word) in parity.iter().enumerate() {
            let mut ones = word;
            while ones != 0 {
                let r = wi * 64 + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                set(self.pivot_cols[r] as usize);
            }
        }
        Ok(BitVec::from_words(self.n, cw))
    }

    /// Encodes a message given as 0/1 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::MessageLength`] on length mismatch.
    pub fn encode_bits(&self, message: &[u8]) -> Result<BitVec, EncodeError> {
        self.encode(&BitVec::from_bits(message))
    }

    /// Extracts the message bits back out of a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != self.n()`.
    pub fn extract_message(&self, codeword: &BitVec) -> BitVec {
        assert_eq!(codeword.len(), self.n, "codeword length mismatch");
        let mut msg = BitVec::zeros(self.dimension());
        for (j, &c) in self.info_cols.iter().enumerate() {
            if codeword.get(c as usize) {
                msg.set(j, true);
            }
        }
        msg
    }
}

impl fmt::Debug for Encoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Encoder(n={}, k={}, systematic_prefix={})",
            self.n,
            self.dimension(),
            self.is_systematic_prefix()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::{demo_code, random_c2_like};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn encodes_valid_codewords() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        assert_eq!(enc.dimension(), code.dimension());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let msg: Vec<u8> = (0..enc.dimension())
                .map(|_| rng.gen_range(0..2u8))
                .collect();
            let cw = enc.encode_bits(&msg).unwrap();
            assert!(code.is_codeword(&cw));
        }
    }

    #[test]
    fn encoding_is_linear() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let a: BitVec = (0..enc.dimension()).map(|_| rng.gen_bool(0.5)).collect();
        let b: BitVec = (0..enc.dimension()).map(|_| rng.gen_bool(0.5)).collect();
        let sum = &a ^ &b;
        let cw_sum = enc.encode(&sum).unwrap();
        let sum_cw = &enc.encode(&a).unwrap() ^ &enc.encode(&b).unwrap();
        assert_eq!(cw_sum, sum_cw);
    }

    #[test]
    fn zero_message_gives_zero_codeword() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let cw = enc.encode(&BitVec::zeros(enc.dimension())).unwrap();
        assert!(cw.is_zero());
    }

    #[test]
    fn message_roundtrips_through_codeword() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let msg: BitVec = (0..enc.dimension()).map(|_| rng.gen_bool(0.5)).collect();
            let cw = enc.encode(&msg).unwrap();
            assert_eq!(enc.extract_message(&cw), msg);
        }
    }

    #[test]
    fn distinct_messages_give_distinct_codewords() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let mut a = BitVec::zeros(enc.dimension());
        a.set(0, true);
        let mut b = BitVec::zeros(enc.dimension());
        b.set(1, true);
        assert_ne!(enc.encode(&a).unwrap(), enc.encode(&b).unwrap());
    }

    #[test]
    fn rejects_wrong_length() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let err = enc.encode(&BitVec::zeros(3)).unwrap_err();
        assert!(matches!(err, EncodeError::MessageLength { .. }));
    }

    #[test]
    fn works_on_random_qc_codes() {
        for seed in 0..3 {
            let code = random_c2_like(seed, 13, 4);
            let enc = Encoder::new(&code).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let msg: Vec<u8> = (0..enc.dimension())
                .map(|_| rng.gen_range(0..2u8))
                .collect();
            let cw = enc.encode_bits(&msg).unwrap();
            assert!(code.is_codeword(&cw), "seed {seed}");
        }
    }

    #[test]
    fn info_positions_sorted_and_in_range() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let pos = enc.info_positions();
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!((*pos.last().unwrap() as usize) < code.n());
    }
}
