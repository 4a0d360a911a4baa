//! The object-safe front door every decoder family drives through.
//!
//! Historically the workspace grew four incompatible ways to run a
//! decoder: the per-frame [`Decoder`] trait, the lockstep [`BatchDecoder`]
//! trait, the bit-sliced hard-decision decoder behind `BatchDecoder`, and
//! ad-hoc hard-bit entry points. [`BlockDecoder`] collapses them: one
//! object-safe trait that decodes a contiguous run of LLR frames, with
//! adapters ([`PerFrame`], [`Batched`]) so every existing decoder drives
//! through it unchanged. Hard-decision decoders take the same LLR input —
//! their sign front end (`llr < 0` ⇒ bit 1) is built into their `decode`
//! implementations — so they are no longer a separate universe.
//!
//! Two ways in: [`decode_block`](BlockDecoder::decode_block) decodes a
//! slice of frames, and [`decode_stream`](BlockDecoder::decode_stream)
//! pulls frames one at a time and reports each result as it finishes.
//! The default stream groups [`block_frames`](BlockDecoder::block_frames)
//! frames per `decode_block` call; the packed decoder streams natively,
//! refilling each lane as its frame retires, so no word waits for its
//! slowest frame.
//!
//! The Monte-Carlo engine in `ldpc-sim` (which streams), the served
//! coalescer, the conformance suite, and the throughput benches all
//! consume this trait; a decoder registered in
//! [`DecoderSpec`](crate::DecoderSpec) is automatically usable by all of
//! them.

use crate::decoder::{decode_frames, BatchDecoder, DecodeResult, Decoder};

/// A decoder driven block-of-frames at a time.
///
/// `decode_block` accepts any positive number of back-to-back frames
/// (frame `f` occupies `llrs[f*n .. (f+1)*n]`) and returns one
/// [`DecodeResult`] per frame in input order.
/// [`block_frames`](BlockDecoder::block_frames) is the *preferred* claim
/// granularity —
/// how many frames a driver should hand over per call to hit the
/// decoder's fast path (1 for scalar decoders, the batch capacity for
/// lockstep decoders, 64 for the bit-sliced decoder) — but callers may
/// pass more or fewer and implementations must chunk internally.
///
/// The trait is object safe: registries and services hold
/// `Box<dyn BlockDecoder>` without knowing the family.
pub trait BlockDecoder {
    /// Decodes `llrs.len() / n()` back-to-back frames.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of [`n`](Self::n).
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult>;

    /// Decodes a stream of frames pulled one at a time.
    ///
    /// `next(buf)` appends the next frame's `n()` LLRs to `buf` and
    /// returns `true`, or returns `false` (appending nothing) once the
    /// stream is exhausted; it is never called again after that.
    /// `done(index, result)` receives each pulled frame's result exactly
    /// once, where `index` counts pulled frames from 0. Results may
    /// arrive out of pull order, but each is the one
    /// [`decode_block`](Self::decode_block) returns for that frame.
    ///
    /// The default groups [`block_frames`](Self::block_frames) frames
    /// per `decode_block` call and emits them in order. The packed
    /// decoder overrides it to refill each lane the moment its frame
    /// retires, so at most a word of frames is in flight.
    ///
    /// # Panics
    ///
    /// Panics if `next` appends anything but exactly `n()` values.
    fn decode_stream(
        &mut self,
        max_iterations: u32,
        next: &mut dyn FnMut(&mut Vec<f32>) -> bool,
        done: &mut dyn FnMut(u64, DecodeResult),
    ) {
        let n = self.n();
        let block = self.block_frames().max(1);
        let mut llrs = Vec::with_capacity(block * n);
        let mut first = 0u64;
        let mut exhausted = false;
        while !exhausted {
            llrs.clear();
            while llrs.len() < block * n {
                let before = llrs.len();
                if !next(&mut llrs) {
                    exhausted = true;
                    break;
                }
                assert_eq!(llrs.len(), before + n, "a streamed frame must hold n LLRs");
            }
            if llrs.is_empty() {
                break;
            }
            for result in self.decode_block(&llrs, max_iterations) {
                done(first, result);
                first += 1;
            }
        }
    }

    /// Preferred frames per `decode_block` call (claim granularity).
    fn block_frames(&self) -> usize;

    /// Code length n expected for each frame.
    fn n(&self) -> usize;

    /// Human-readable name, including distinguishing parameters.
    fn name(&self) -> String;
}

/// Adapts a per-frame [`Decoder`] to [`BlockDecoder`] (block size 1).
pub struct PerFrame<D: Decoder>(D);

impl<D: Decoder> PerFrame<D> {
    /// Wraps a per-frame decoder.
    pub fn new(decoder: D) -> Self {
        Self(decoder)
    }

    /// The wrapped decoder.
    pub fn inner(&self) -> &D {
        &self.0
    }
}

impl<D: Decoder> BlockDecoder for PerFrame<D> {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        decode_frames(&mut self.0, llrs, max_iterations)
    }

    fn block_frames(&self) -> usize {
        1
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Adapts a lockstep [`BatchDecoder`] to [`BlockDecoder`] (block size =
/// batch capacity; longer inputs are chunked capacity frames at a time).
pub struct Batched<D: BatchDecoder>(D);

impl<D: BatchDecoder> Batched<D> {
    /// Wraps a batch decoder.
    pub fn new(decoder: D) -> Self {
        Self(decoder)
    }

    /// The wrapped decoder.
    pub fn inner(&self) -> &D {
        &self.0
    }
}

impl<D: BatchDecoder> BlockDecoder for Batched<D> {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let n = self.0.n();
        assert!(
            !llrs.is_empty() && llrs.len().is_multiple_of(n),
            "LLR length must be a positive multiple of the code length"
        );
        llrs.chunks(self.0.capacity() * n)
            .flat_map(|chunk| self.0.decode_batch(chunk, max_iterations))
            .collect()
    }

    fn block_frames(&self) -> usize {
        self.0.capacity()
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

impl BlockDecoder for Box<dyn BlockDecoder> {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        (**self).decode_block(llrs, max_iterations)
    }

    fn decode_stream(
        &mut self,
        max_iterations: u32,
        next: &mut dyn FnMut(&mut Vec<f32>) -> bool,
        done: &mut dyn FnMut(u64, DecodeResult),
    ) {
        (**self).decode_stream(max_iterations, next, done)
    }

    fn block_frames(&self) -> usize {
        (**self).block_frames()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::{
        BatchMinSumDecoder, BitsliceGallagerBDecoder, GallagerBDecoder, MinSumConfig, MinSumDecoder,
    };

    #[test]
    fn per_frame_adapter_matches_direct_decoding() {
        let code = demo_code();
        let llrs: Vec<f32> = (0..3 * code.n())
            .map(|i| if i % 17 == 0 { -1.5 } else { 2.5 })
            .collect();
        let mut direct = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let want = decode_frames(&mut direct, &llrs, 20);
        let mut adapted = PerFrame::new(MinSumDecoder::new(code, MinSumConfig::normalized(1.25)));
        assert_eq!(adapted.block_frames(), 1);
        assert_eq!(adapted.decode_block(&llrs, 20), want);
    }

    #[test]
    fn batched_adapter_chunks_oversized_inputs() {
        let code = demo_code();
        // 10 frames through a capacity-4 decoder: chunks of 4, 4, 2.
        let llrs: Vec<f32> = (0..10 * code.n())
            .map(|i| if i % 13 == 0 { -1.0 } else { 3.0 })
            .collect();
        let mut per_frame = PerFrame::new(MinSumDecoder::new(
            code.clone(),
            MinSumConfig::normalized(1.25),
        ));
        let want = per_frame.decode_block(&llrs, 20);
        let mut batched = Batched::new(BatchMinSumDecoder::new(
            code,
            MinSumConfig::normalized(1.25),
            4,
        ));
        assert_eq!(batched.block_frames(), 4);
        assert_eq!(batched.decode_block(&llrs, 20), want);
    }

    #[test]
    fn hard_decision_decoders_share_the_llr_front_door() {
        // Gallager-B consumes the same LLR frames as the soft decoders:
        // the sign front end is inside the decoder, not a separate API.
        let code = demo_code();
        let mut llrs = vec![3.0_f32; 2 * code.n()];
        llrs[17] = -3.0;
        let mut scalar: Box<dyn BlockDecoder> =
            Box::new(PerFrame::new(GallagerBDecoder::new(code.clone(), 3)));
        let mut sliced: Box<dyn BlockDecoder> =
            Box::new(Batched::new(BitsliceGallagerBDecoder::new(code, 3)));
        let want = scalar.decode_block(&llrs, 20);
        assert!(want.iter().all(|r| r.converged));
        assert_eq!(sliced.decode_block(&llrs, 20), want);
    }

    /// `decode_stream` hands every family's frames to `done` exactly
    /// once, each with the result `decode_block` gives it — the default
    /// grouping and the packed decoder's lane refill alike. 11 frames
    /// leave a partial block for every block size.
    #[test]
    fn decode_stream_matches_decode_block_for_every_family() {
        let code = demo_code();
        let n = code.n();
        let frames = 11;
        let llrs: Vec<f32> = (0..frames * n)
            .map(|i| match (i / n) % 3 {
                0 => 3.0,
                1 if i % 11 == 0 => -1.0,
                1 => 2.0,
                _ if i % 3 == 0 => -1.5,
                _ => 1.0,
            })
            .collect();
        for spec in crate::DecoderSpec::all_families() {
            let want = spec.build(&code).decode_block(&llrs, 12);
            let mut decoder = spec.build(&code);
            let mut source = llrs.chunks_exact(n);
            let mut got: Vec<Option<DecodeResult>> = vec![None; frames];
            decoder.decode_stream(
                12,
                &mut |buf| source.next().map(|f| buf.extend_from_slice(f)).is_some(),
                &mut |i, result| {
                    let slot = &mut got[i as usize];
                    assert!(slot.is_none(), "{spec}: frame {i} emitted twice");
                    *slot = Some(result);
                },
            );
            let got: Vec<DecodeResult> = got
                .into_iter()
                .map(|r| r.unwrap_or_else(|| panic!("{spec}: a frame was never emitted")))
                .collect();
            assert_eq!(got, want, "{spec}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn batched_adapter_rejects_ragged_input() {
        let code = demo_code();
        let mut dec = Batched::new(BatchMinSumDecoder::new(code, MinSumConfig::plain(), 4));
        dec.decode_block(&[0.0; 5], 1);
    }
}
