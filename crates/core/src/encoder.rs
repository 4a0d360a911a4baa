//! Systematic encoding via reduced row-echelon form of the parity-check
//! matrix, with a carry-less-multiply circulant form for quasi-cyclic
//! codes.

#[cfg(target_arch = "x86_64")]
mod clmul;

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
/// The encoder then runs in one of two forms, picked once at
/// construction (see [`form`](Self::form)); both give the same codeword
/// bit for bit.
///
/// * **Column form** (`"columns"`). The combinations are stored column
///   by column: message bit `j` owns a `⌈rank/64⌉`-word mask of the
///   parity bits it feeds, so encoding XORs the masks of the message's
///   set bits into one parity accumulator. The leading run of message
///   bits that sit at their own index (`info_positions()[j] == j`) is
///   copied into the codeword word by word. Every code can use it.
/// * **Circulant form** (`"clmul"`). For a quasi-cyclic code of
///   circulant size Z whose message starts with `kb ≥ 1` whole blocks,
///   parity block `j` is `Σ_i m_i(x)·g_ij(x) mod (x^Z − 1)`: the message
///   blocks times the parity blocks of the unit messages `e_{Z·i}`,
///   computed with the PCLMULQDQ carry-less multiply. Message bits past
///   the `kb` blocks — fewer than one block of them — are patched in
///   with one stored codeword each. It is picked on `x86_64` CPUs with
///   PCLMULQDQ; other hosts, non-QC codes and message sets without such
///   a whole-block prefix keep the column form.
///
/// For the CCSDS C2 code all 1020 pivots land in the last 1022 columns, so
/// the first 7154 positions (14 blocks of 511) are systematic information
/// bits and the code matches the CCSDS transmission profile (see
/// [`codes::ccsds_c2::encode_frame`](crate::codes::ccsds_c2::encode_frame)).
/// Its circulant form is 28 products of 511-bit polynomials plus two
/// patch codewords, against about 3 600 mask XORs for the column form.
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
    form: Form,
}

/// How [`Encoder::encode`] computes the parity bits.
enum Form {
    Columns(ColumnForm),
    #[cfg(target_arch = "x86_64")]
    Circulant(CirculantForm),
}

/// The column form: one parity mask per message bit.
struct ColumnForm {
    /// Pivot column of each parity equation.
    pivot_cols: Vec<u32>,
    /// Words per parity mask: `⌈rank/64⌉`.
    parity_words: usize,
    /// Column-major parity map: words `j·parity_words ..` hold the parity
    /// equations (bit `r` = equation `r`) that message bit `j` enters.
    parity_map: Vec<u64>,
}

/// The circulant form: parity blocks as sums of circulant products.
#[cfg(target_arch = "x86_64")]
struct CirculantForm {
    /// Circulant size Z.
    z: usize,
    /// Words per circulant polynomial: `⌈Z/64⌉`.
    w: usize,
    /// Whole message blocks: message bits `0..kb·Z`.
    kb: usize,
    /// `kb` rounded up to even (the kernel takes blocks in pairs).
    kp: usize,
    /// Parity polynomials, word-major: word `(j·w + y)·kp + i` is word
    /// `y` of block `kb + j` of the codeword of the unit message
    /// `e_{Z·i}` (zero for the pad block `i = kb`).
    g: Vec<u64>,
    /// Message bits past the whole blocks: (message index, column).
    extra: Vec<(u32, u32)>,
    /// The codeword of each extra bit's unit message, `⌈n/64⌉` words each.
    patches: Vec<u64>,
}

impl Encoder {
    /// Builds the encoder for a code.
    ///
    /// This performs dense Gaussian elimination on H — O(m²·n/64) — which
    /// for the C2 code takes a fraction of a second. Cache the encoder if
    /// you encode many frames (see
    /// [`codes::ccsds_c2::encoder`](crate::codes::ccsds_c2::encoder)).
    /// The circulant form, where it applies, costs `kb` more column-form
    /// encodes plus one per message bit past the whole blocks, and
    /// replaces the column form's parity map.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::ZeroDimension`] if H has full column rank.
    pub fn new(code: &LdpcCode) -> Result<Self, EncodeError> {
        let enc = Self::with_columns(code)?;
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            if let Some(form) = CirculantForm::new(code, &enc) {
                let form = Form::Circulant(form);
                return Ok(Self { form, ..enc });
            }
        }
        Ok(enc)
    }

    /// Builds the column form, which every code and host supports.
    fn with_columns(code: &LdpcCode) -> Result<Self, EncodeError> {
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
            form: Form::Columns(ColumnForm {
                pivot_cols,
                parity_words,
                parity_map,
            }),
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

    /// The form picked at construction: `"clmul"` for the circulant
    /// form, `"columns"` for the column form.
    pub fn form(&self) -> &'static str {
        match self.form {
            Form::Columns(_) => "columns",
            #[cfg(target_arch = "x86_64")]
            Form::Circulant(_) => "clmul",
        }
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
        let cw = match &self.form {
            Form::Columns(columns) => self.encode_columns(columns, message),
            #[cfg(target_arch = "x86_64")]
            Form::Circulant(circulant) => circulant.encode(self.n, message),
        };
        Ok(BitVec::from_words(self.n, cw))
    }

    /// The column form's codeword words.
    fn encode_columns(&self, columns: &ColumnForm, message: &BitVec) -> Vec<u64> {
        let msg = message.words();
        let pw = columns.parity_words;
        let mut parity = vec![0u64; pw];
        for (wi, &word) in msg.iter().enumerate() {
            let mut ones = word;
            while ones != 0 {
                let j = wi * 64 + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                let column = &columns.parity_map[j * pw..(j + 1) * pw];
                for (p, c) in parity.iter_mut().zip(column) {
                    *p ^= c;
                }
            }
        }
        let mut cw = vec![0u64; self.n.div_ceil(64)];
        copy_prefix(&mut cw, msg, self.prefix_len);
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
                set(columns.pivot_cols[r] as usize);
            }
        }
        cw
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

#[cfg(target_arch = "x86_64")]
impl CirculantForm {
    /// Derives the circulant form from a column-form encoder, or `None`
    /// if the code is not quasi-cyclic or its message does not start
    /// with a whole circulant block.
    ///
    /// Exactness: H is invariant under the same cyclic shift of every
    /// block, so shifting a codeword block by block gives a codeword, and
    /// `Σ_i m_i(x)·enc(e_{Z·i})` (blockwise products mod `x^Z − 1`) is a
    /// codeword whose first `kb·Z` bits are the message's. Patching each
    /// later message bit that differs with its unit codeword fixes the
    /// rest of the message positions, and a systematic encoder is unique
    /// for its information set — so the result is the column form's
    /// codeword.
    fn new(code: &LdpcCode, columns: &Encoder) -> Option<Self> {
        let Form::Columns(form) = &columns.form else {
            return None;
        };
        let spec = code.qc_structure()?;
        let z = spec.circulant_size();
        let blocks = spec.block_cols();
        let kb = columns.prefix_len / z;
        let (w, k) = (z.div_ceil(64), columns.dimension());
        // Each message bit past the whole blocks costs a stored codeword:
        // take the form only while they are fewer than one block.
        if kb == 0 || kb >= blocks || blocks * z != columns.n || k - kb * z >= z {
            return None;
        }
        let (pb, kp) = (blocks - kb, kb.next_multiple_of(2));
        let unit = |j: usize| {
            let mut message = BitVec::zeros(k);
            message.set(j, true);
            columns.encode_columns(form, &message)
        };
        let mut g = vec![0u64; pb * w * kp];
        let mut block = vec![0u64; w];
        for i in 0..kb {
            let cw = unit(i * z);
            for j in 0..pb {
                read_bits(&cw, (kb + j) * z, z, &mut block);
                for (y, &word) in block.iter().enumerate() {
                    g[(j * w + y) * kp + i] = word;
                }
            }
        }
        let extra: Vec<(u32, u32)> = (kb * z..k)
            .map(|j| (j as u32, columns.info_cols[j]))
            .collect();
        let patches = extra.iter().flat_map(|&(j, _)| unit(j as usize)).collect();
        Some(Self {
            z,
            w,
            kb,
            kp,
            g,
            extra,
            patches,
        })
    }

    /// The circulant form's codeword words.
    fn encode(&self, n: usize, message: &BitVec) -> Vec<u64> {
        let (z, w, kb, kp) = (self.z, self.w, self.kb, self.kp);
        let pb = n / z - kb;
        let msg = message.words();
        let mut cw = vec![0u64; n.div_ceil(64)];
        copy_prefix(&mut cw, msg, kb * z);
        // One buffer: the word-major message blocks, the unreduced sums,
        // and a two-half scratch for reading a block and folding a sum.
        let mut buf = vec![0u64; w * kp + pb * 2 * w + 2 * w];
        let (blocks, rest) = buf.split_at_mut(w * kp);
        let (sums, scratch) = rest.split_at_mut(pb * 2 * w);
        let (low, high) = scratch.split_at_mut(w);
        for i in 0..kb {
            read_bits(msg, i * z, z, low);
            for (x, &word) in low.iter().enumerate() {
                blocks[x * kp + i] = word;
            }
        }
        clmul::sum_of_products(blocks, &self.g, w, sums);
        // Fold each sum mod x^Z − 1: coefficient Z + s lands on s.
        for (j, sum) in sums.chunks_exact(2 * w).enumerate() {
            read_bits(sum, 0, z, low);
            read_bits(sum, z, z, high);
            for (l, h) in low.iter_mut().zip(high.iter()) {
                *l ^= h;
            }
            xor_bits(&mut cw, (kb + j) * z, low);
        }
        let nw = cw.len();
        for (&(j, c), patch) in self.extra.iter().zip(self.patches.chunks_exact(nw)) {
            let (j, c) = (j as usize, c as usize);
            if (cw[c / 64] >> (c % 64)) & 1 != u64::from(message.get(j)) {
                for (a, p) in cw.iter_mut().zip(patch) {
                    *a ^= p;
                }
            }
        }
        cw
    }
}

/// Copies bits `0..len` of `src` into the (zeroed) `dst`.
fn copy_prefix(dst: &mut [u64], src: &[u64], len: usize) {
    let (full, rem) = (len / 64, len % 64);
    dst[..full].copy_from_slice(&src[..full]);
    if rem > 0 {
        dst[full] = src[full] & ((1u64 << rem) - 1);
    }
}

/// Reads bits `start..start + len` of `src` into `out`, whose words past
/// bit `len` come out zero (so do bits past the end of `src`).
#[cfg(target_arch = "x86_64")]
fn read_bits(src: &[u64], start: usize, len: usize, out: &mut [u64]) {
    let (w0, sh) = (start / 64, start % 64);
    let word = |i: usize| src.get(i).copied().unwrap_or(0);
    for (k, o) in out.iter_mut().enumerate() {
        *o = match sh {
            0 => word(w0 + k),
            _ => (word(w0 + k) >> sh) | (word(w0 + k + 1) << (64 - sh)),
        };
        let valid = len.saturating_sub(64 * k);
        if valid < 64 {
            *o &= (1u64 << valid) - 1;
        }
    }
}

/// XORs `src` into `dst` starting at bit `start`; `src`'s set bits must
/// land inside `dst`.
#[cfg(target_arch = "x86_64")]
fn xor_bits(dst: &mut [u64], start: usize, src: &[u64]) {
    let (w0, sh) = (start / 64, start % 64);
    for (k, &s) in src.iter().enumerate() {
        if s == 0 {
            continue;
        }
        dst[w0 + k] ^= s << sh;
        if sh > 0 {
            if let Some(d) = dst.get_mut(w0 + k + 1) {
                *d ^= s >> (64 - sh);
            }
        }
    }
}

#[cfg(test)]
impl Encoder {
    /// The encoder in a named form (`"columns"` or `"clmul"`), so tests
    /// can run the column form on a host that would pick the circulant
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the form is unknown or this code and host cannot take it.
    fn with_form(code: &LdpcCode, form: &str) -> Self {
        let enc = match form {
            "columns" => Self::with_columns(code),
            "clmul" => Self::new(code),
            _ => panic!("unknown encoder form {form:?}"),
        }
        .expect("code has positive dimension");
        assert_eq!(enc.form(), form, "{code:?} takes no {form} form here");
        enc
    }
}

impl fmt::Debug for Encoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Encoder(n={}, k={}, systematic_prefix={}, form={})",
            self.n,
            self.dimension(),
            self.is_systematic_prefix(),
            self.form()
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

    /// Both forms are linear maps, so agreeing on every unit message
    /// proves them equal on every message.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn circulant_form_matches_column_form_on_every_c2_unit_message() {
        let code = crate::codes::ccsds_c2::code();
        let columns = Encoder::with_form(&code, "columns");
        let Form::Columns(form) = &columns.form else {
            unreachable!()
        };
        assert!(form.parity_words > 0);
        let circulant = CirculantForm::new(&code, &columns).expect("C2 is quasi-cyclic");
        assert_eq!(
            (circulant.z, circulant.w, circulant.kb, circulant.kp),
            (511, 8, 14, 14)
        );
        assert_eq!(circulant.extra, [(7154, 7664), (7155, 8175)]);
        if !clmul::available() {
            assert_eq!(Encoder::new(&code).unwrap().form(), "columns");
            return;
        }
        let clmul = Encoder::with_form(&code, "clmul");
        let k = clmul.dimension();
        assert_eq!(k, 7156);
        for j in 0..k {
            let mut msg = BitVec::zeros(k);
            msg.set(j, true);
            assert_eq!(
                clmul.encode(&msg).unwrap(),
                columns.encode(&msg).unwrap(),
                "unit message {j}"
            );
        }
    }

    #[test]
    fn form_follows_structure_and_host() {
        #[cfg(target_arch = "x86_64")]
        let qc = if clmul::available() {
            "clmul"
        } else {
            "columns"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let qc = "columns";
        // 2×6 blocks of 45: message bits 0..180 are four whole blocks,
        // then two bits in the parity region.
        let code = random_c2_like(0, 45, 6);
        assert_eq!(Encoder::new(&code).unwrap().form(), qc);
        assert_eq!(Encoder::with_columns(&code).unwrap().form(), "columns");
        // The demo code is quasi-cyclic, but columns 0..5 are pivots: no
        // whole message block.
        let demo = Encoder::new(&demo_code()).unwrap();
        assert_eq!(demo.info_positions()[0], 5);
        assert_eq!(demo.form(), "columns");
        // Message bits 0..200 are two whole blocks of 100, but 202 more
        // follow: more patch codewords than a block holds.
        assert_eq!(
            Encoder::new(&random_c2_like(1, 100, 6)).unwrap().form(),
            "columns"
        );
        // A code without circulant structure keeps the column form.
        let h = gf2::SparseMatrix::from_entries(
            3,
            7,
            &[
                (0, 0),
                (0, 1),
                (0, 3),
                (1, 1),
                (1, 2),
                (1, 4),
                (2, 0),
                (2, 2),
                (2, 5),
                (2, 6),
            ],
        );
        let plain = LdpcCode::from_parity_check("plain", h).unwrap();
        assert_eq!(plain.qc_structure(), None);
        assert_eq!(Encoder::new(&plain).unwrap().form(), "columns");
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
