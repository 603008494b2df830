//! Offline shim for `rand_chacha`: a real ChaCha8 keystream generator
//! implementing the `rand` shim's `RngCore`/`SeedableRng` traits.
//!
//! The block function is the standard ChaCha construction (IETF
//! constants, 8 rounds); output words are emitted in block order, so a
//! given seed always yields the same stream on every platform.
//!
//! A refill computes eight consecutive blocks, on one of three paths:
//! on x86_64 with AVX2 (detected at run time) they run lane-parallel in
//! AVX2 registers, state word `i` of the eight blocks in the eight lanes
//! of one vector; on x86_64 without AVX2, two four-block runs in SSE2
//! lanes fill the buffer; elsewhere the scalar block function runs eight
//! times. The buffer, [`ChaCha8Rng::word_pos`] and the keystream are the
//! same on every path. The calls into the AVX2 and SSE2 functions are
//! this crate's two `unsafe` blocks. The scalar function is the oracle
//! both are tested against, word for word.
//!
//! A generator's first refill, at block 0, computes that block alone
//! with the scalar function, so a short-lived generator that reads a few
//! words pays for one block, not eight.

#![deny(clippy::undocumented_unsafe_blocks)]

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks computed per refill.
const BUF_BLOCKS: u64 = 8;
/// Words in the refill buffer.
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS as usize;

/// ChaCha with 8 rounds, seeded with a 256-bit key. The stream id
/// (state words 14-15) is zero.
#[derive(Clone)]
pub struct ChaCha8Rng {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// 64-bit block counter (words 12-13 of the state) of the next
    /// refill's first block.
    counter: u64,
    /// Keystream blocks `counter - 8 .. counter`, in block order; after
    /// the one-block first refill only the last block holds keystream.
    buffer: [u32; BUF_WORDS],
    /// Next unread word in `buffer`; `BUF_WORDS` forces a refill.
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Keystream block number `counter`, one block at a time.
fn block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut state = [0u32; BLOCK_WORDS];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;

    let mut working = state;
    for _ in 0..ROUNDS / 2 {
        // Column round.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (word, input) in working.iter_mut().zip(state) {
        *word = word.wrapping_add(input);
    }
    working
}

/// Blocks `counter .. counter + 8` into `out`, calling [`block`] for each.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
fn eight_blocks_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for (b, words) in (0..BUF_BLOCKS).zip(out.chunks_exact_mut(BLOCK_WORDS)) {
        words.copy_from_slice(&block(key, counter.wrapping_add(b)));
    }
}

/// Each lane's block counter, computed in 64 bits and then split into
/// its low (state word 12) and high (word 13) halves, so a carry into
/// word 13 happens per block as the block function does.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn lane_counters<const N: usize>(counter: u64) -> ([i32; N], [i32; N]) {
    let c: [u64; N] = std::array::from_fn(|b| counter.wrapping_add(b as u64));
    (c.map(|c| c as i32), c.map(|c| (c >> 32) as i32))
}

/// The four-block refill in SSE2 lanes: lane `b` of every vector belongs
/// to block `counter + b`.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{lane_counters, BLOCK_WORDS, CONSTANTS, ROUNDS};
    use std::arch::x86_64::*;

    /// Rotates every lane left by 16: swaps its two 16-bit halves.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl16(v: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(v))
    }

    /// Rotates every lane left by `L`; `R` is `32 - L`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(v: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(x: &mut [__m128i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// Writes the four lanes of `v` to `out[..4]`, lane 0 first. Two safe
    /// 64-bit extracts stand in for `_mm_storeu_si128`, which takes a raw
    /// pointer; they compile to one 16-byte store.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(v: __m128i, out: &mut [u32]) {
        let lo = _mm_cvtsi128_si64(v) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        out[..4].copy_from_slice(&[lo as u32, (lo >> 32) as u32, hi as u32, (hi >> 32) as u32]);
    }

    /// Blocks `counter .. counter + 4` into `out`, in block order.
    #[target_feature(enable = "sse2")]
    pub(super) fn four_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; 4 * BLOCK_WORDS]) {
        let mut input = [_mm_setzero_si128(); BLOCK_WORDS];
        for (lanes, &word) in input.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *lanes = _mm_set1_epi32(word as i32);
        }
        let (lo, hi) = lane_counters::<4>(counter);
        input[12] = _mm_setr_epi32(lo[0], lo[1], lo[2], lo[3]);
        input[13] = _mm_setr_epi32(hi[0], hi[1], hi[2], hi[3]);

        let mut x = input;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, lanes) in x.iter_mut().zip(input) {
            *word = _mm_add_epi32(*word, lanes);
        }

        // Transpose each run of four state words from lanes to blocks.
        for w in (0..BLOCK_WORDS).step_by(4) {
            let ab01 = _mm_unpacklo_epi32(x[w], x[w + 1]);
            let cd01 = _mm_unpacklo_epi32(x[w + 2], x[w + 3]);
            let ab23 = _mm_unpackhi_epi32(x[w], x[w + 1]);
            let cd23 = _mm_unpackhi_epi32(x[w + 2], x[w + 3]);
            store(_mm_unpacklo_epi64(ab01, cd01), &mut out[w..]);
            store(_mm_unpackhi_epi64(ab01, cd01), &mut out[BLOCK_WORDS + w..]);
            store(
                _mm_unpacklo_epi64(ab23, cd23),
                &mut out[2 * BLOCK_WORDS + w..],
            );
            store(
                _mm_unpackhi_epi64(ab23, cd23),
                &mut out[3 * BLOCK_WORDS + w..],
            );
        }
    }
}

/// The eight-block refill in AVX2 lanes: lane `b` of every vector belongs
/// to block `counter + b`.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod avx2 {
    use super::{lane_counters, BLOCK_WORDS, BUF_WORDS, CONSTANTS, ROUNDS};
    use std::arch::x86_64::*;

    /// Rotates every lane left by 16 with one byte shuffle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl16(v: __m256i) -> __m256i {
        let bytes = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        _mm256_shuffle_epi8(v, bytes)
    }

    /// Rotates every lane left by 8 with one byte shuffle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl8(v: __m256i) -> __m256i {
        let bytes = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        _mm256_shuffle_epi8(v, bytes)
    }

    /// Rotates every lane left by `L`; `R` is `32 - L`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl8(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Writes the eight lanes of `v` to `out[..8]`, lane 0 first, with
    /// safe 64-bit extracts in place of `_mm256_storeu_si256`, which takes
    /// a raw pointer.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(v: __m256i, out: &mut [u32]) {
        let q = [
            _mm256_extract_epi64::<0>(v) as u64,
            _mm256_extract_epi64::<1>(v) as u64,
            _mm256_extract_epi64::<2>(v) as u64,
            _mm256_extract_epi64::<3>(v) as u64,
        ];
        for (pair, q) in out[..8].chunks_exact_mut(2).zip(q) {
            pair.copy_from_slice(&[q as u32, (q >> 32) as u32]);
        }
    }

    /// Blocks `counter .. counter + 8` into `out`, in block order.
    #[target_feature(enable = "avx2")]
    pub(super) fn eight_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let mut input = [_mm256_setzero_si256(); BLOCK_WORDS];
        for (lanes, &word) in input.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *lanes = _mm256_set1_epi32(word as i32);
        }
        let (lo, hi) = lane_counters::<8>(counter);
        input[12] = _mm256_setr_epi32(lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7]);
        input[13] = _mm256_setr_epi32(hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7]);

        let mut x = input;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, lanes) in x.iter_mut().zip(input) {
            *word = _mm256_add_epi32(*word, lanes);
        }

        // Transpose each run of eight state words from lanes to blocks:
        // 32- and 64-bit unpacks gather four words of a block in one
        // 128-bit half (blocks 0-3 low, 4-7 high), then a half swap joins
        // the two runs of four.
        for w in (0..BLOCK_WORDS).step_by(8) {
            let v = &x[w..w + 8];
            let t = [
                _mm256_unpacklo_epi32(v[0], v[1]),
                _mm256_unpackhi_epi32(v[0], v[1]),
                _mm256_unpacklo_epi32(v[2], v[3]),
                _mm256_unpackhi_epi32(v[2], v[3]),
                _mm256_unpacklo_epi32(v[4], v[5]),
                _mm256_unpackhi_epi32(v[4], v[5]),
                _mm256_unpacklo_epi32(v[6], v[7]),
                _mm256_unpackhi_epi32(v[6], v[7]),
            ];
            // `u[b]` holds words `w .. w + 4` of blocks `b` and `b + 4`;
            // `u[4 + b]` holds words `w + 4 .. w + 8` of the same blocks.
            let u = [
                _mm256_unpacklo_epi64(t[0], t[2]),
                _mm256_unpackhi_epi64(t[0], t[2]),
                _mm256_unpacklo_epi64(t[1], t[3]),
                _mm256_unpackhi_epi64(t[1], t[3]),
                _mm256_unpacklo_epi64(t[4], t[6]),
                _mm256_unpackhi_epi64(t[4], t[6]),
                _mm256_unpacklo_epi64(t[5], t[7]),
                _mm256_unpackhi_epi64(t[5], t[7]),
            ];
            for b in 0..4 {
                let low = _mm256_permute2x128_si256::<0x20>(u[b], u[4 + b]);
                let high = _mm256_permute2x128_si256::<0x31>(u[b], u[4 + b]);
                store(low, &mut out[b * BLOCK_WORDS + w..]);
                store(high, &mut out[(b + 4) * BLOCK_WORDS + w..]);
            }
        }
    }
}

/// Blocks `counter .. counter + 8` into `out` as two SSE2 four-block
/// runs: the refill on x86_64 CPUs without AVX2.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn eight_blocks_sse2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    let (halves, _) = out.as_chunks_mut::<{ BUF_WORDS / 2 }>();
    for (half, words) in (0..2u64).zip(halves) {
        // SAFETY: `sse2::four_blocks` requires the SSE2 target feature, and
        // this call is compiled only when the build enables it (the `cfg`
        // above), so every CPU this binary runs on has it.
        unsafe { sse2::four_blocks(key, counter.wrapping_add(4 * half), words) }
    }
}

/// Blocks `counter .. counter + 8` into `out`, in block order: in AVX2
/// lanes when this CPU has AVX2, else in SSE2 lanes.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn eight_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::eight_blocks` requires the AVX2 target feature,
        // and the run-time `is_x86_feature_detected!("avx2")` check above
        // found it on the CPU this runs on.
        unsafe { avx2::eight_blocks(key, counter, out) }
    } else {
        eight_blocks_sse2(key, counter, out);
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
use eight_blocks_scalar as eight_blocks;

impl ChaCha8Rng {
    /// Out of line, so the `#[inline]` draws stay small in their callers.
    #[inline(never)]
    fn refill(&mut self) {
        if self.counter == 0 {
            // A fresh generator (or one whose counter wrapped): block 0
            // alone, into the buffer's last block, so `word_pos` and the
            // next refill (at block 1) read as after any other refill.
            let last = BUF_WORDS - BLOCK_WORDS;
            self.buffer[last..].copy_from_slice(&block(&self.key, 0));
            self.counter = 1;
            self.index = last;
        } else {
            eight_blocks(&self.key, self.counter, &mut self.buffer);
            self.counter = self.counter.wrapping_add(BUF_BLOCKS);
            self.index = 0;
        }
    }

    /// Keystream words consumed so far (modulo 2^68, the keystream's
    /// length), as rand_chacha's `get_word_pos` counts them.
    pub fn word_pos(&self) -> u128 {
        let block = self
            .counter
            .wrapping_sub(BUF_BLOCKS)
            .wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }
}

impl std::fmt::Debug for ChaCha8Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha8Rng")
            .field("counter", &self.counter)
            .field("index", &self.index)
            .finish()
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buffer: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i + 1 < BUF_WORDS {
            self.index = i + 2;
            u64::from(self.buffer[i]) | u64::from(self.buffer[i + 1]) << 32
        } else {
            // The pair straddles a refill, or the buffer is spent.
            let lo = u64::from(self.next_u32());
            lo | u64::from(self.next_u32()) << 32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be uncorrelated, {same} collisions"
        );
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..21 {
            a.next_u32();
        }
        let mut b = a.clone();
        assert_eq!(a.word_pos(), b.word_pos());
        for _ in 0..40 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn zero_key_keystream_matches_the_chacha8_test_vector() {
        // draft-strombergson-chacha-test-vectors TC1 (ChaCha8, 256-bit
        // all-zero key, all-zero IV): the first two 64-byte blocks.
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let mut bytes = [0u8; 128];
        rng.fill_bytes(&mut bytes);
        assert_eq!(
            hex(&bytes),
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
             984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42\
             d2aefa0deaa5c151bf0adb6c01f2a5adc0fd581259f9a2aadcf20f8fd566a26b\
             5032ec38bbc5da98ee0c6f568b872a65a08abf251deb21bb4b56e5d8821e68aa"
        );
    }

    /// One read of the fixed mixed pattern the seed goldens draw with.
    #[derive(Clone, Copy)]
    enum Read {
        U32,
        U64,
        Bytes(usize),
    }

    /// `u64`s at odd and even word offsets and `fill_bytes` calls with a
    /// partial last word: eleven keystream words per cycle.
    const PATTERN: [Read; 6] = [
        Read::U32,
        Read::U64,
        Read::Bytes(7),
        Read::U64,
        Read::U32,
        Read::Bytes(12),
    ];

    /// Reads with [`PATTERN`] until `words` keystream words are consumed
    /// and returns the hex of every byte returned, words little-endian.
    fn mixed_reads_hex(rng: &mut ChaCha8Rng, words: usize) -> String {
        let mut out = Vec::new();
        let mut used = 0;
        for read in PATTERN.iter().cycle() {
            if used >= words {
                break;
            }
            match *read {
                Read::U32 => {
                    out.extend_from_slice(&rng.next_u32().to_le_bytes());
                    used += 1;
                }
                Read::U64 => {
                    out.extend_from_slice(&rng.next_u64().to_le_bytes());
                    used += 2;
                }
                Read::Bytes(n) => {
                    let mut bytes = vec![0u8; n];
                    rng.fill_bytes(&mut bytes);
                    out.extend_from_slice(&bytes);
                    used += n.div_ceil(4);
                }
            }
        }
        assert_eq!(used, words, "the pattern must end on the word count");
        hex(&out)
    }

    #[test]
    fn seeded_streams_are_pinned() {
        let goldens: [(u64, &str); 4] = [
            (
                0,
                "6c3b9aa767f785b537c0d8ba5fa54677e6a6e2320dfbb27c889b8fa460670f79\
                 46023267660de1bdb07e94cb14ae8c3c922e6a9d5338d4ba68d3d27d1c7860e6\
                 887e3aa2c4cd081eb3e608a27f2744cc1b7fa35376e1692f1eebf20243c5a340\
                 4b7d22782886e0a88e8a1acd5922df160dae19b9c347ccee93c6c484a4f0d3df\
                 0c24bd8b305e017bfdc1404a6eb27abea7b7ed2e1936a991e1c660e3",
            ),
            (
                7,
                "bb43d723345365283a299b2ed359012b319524b9704bb4e33a3e09b6b70bba88\
                 db37125f1cec9926fe99cfa34dff5b9bb8f53d9f6343157e0a6f41630f6bcda8\
                 0f5c4a854d5d7725487edcd56efd68b8d074afc54233bf9196bc8dd95f621935\
                 208bf0a17085eb1fa38fe1de41d6c279617a6e386d3287e53f552dcb8642a42d\
                 d095b08f4d9c0006fba5996513a614c8ac481ba995734f0300cba437",
            ),
            (
                20231112,
                "e498835a21dbd4ec4e3bc9e6ee20e0a5c66ba5d309e844b64a93d13773fe4094\
                 13aed5dcb7ea6d7074ef58f17add63f7b17e0bfc4dd4cd907b36860a96a44834\
                 9fd7a6dbe585484b92533b6984fefbc223788545fba283d5cd8ae625d6bb3531\
                 52d092b627e2a2f684756aa75467826f505cfbd8291a9c65eade69f4fcc25e7d\
                 2cfef3445728cf93098dc822ae6879ffa4d6485c3d1b34e2ce27c3b1",
            ),
            (
                u64::MAX,
                "ae3ca7e3862320afd82dbe9703dfa06ddc1b58245f7b6197a58599f821d06ec5\
                 c1eb95f0ba8ea834d7a698fa17bed0ba2dcbf41262cc3f654c71391112407341\
                 22193ec5eb53bb8d5d3d1e857af8eafd7b3111cef8d21c93053f12b31805aca7\
                 f78008ba8fdcdd405f6c97ceba4cdb94ef7633a44e3ea49425f5a4316baeb946\
                 d2feee1dd4b21762edbc40320ead309a03b6258cdc09e2869cf010c1",
            ),
        ];
        for (seed, want) in goldens {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_eq!(mixed_reads_hex(&mut rng, 40), want, "seed {seed}");
        }
    }

    #[test]
    fn word_pos_counts_words_consumed() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(rng.word_pos(), 0);
        rng.next_u32();
        assert_eq!(rng.word_pos(), 1);
        rng.next_u64();
        assert_eq!(rng.word_pos(), 3);
        // To the last word of block 0, which the first refill computes
        // alone, then a `u64` straddling the eight-block refill after it.
        for _ in 0..6 {
            rng.next_u64();
        }
        assert_eq!(rng.word_pos(), 15);
        rng.next_u64();
        assert_eq!(rng.word_pos(), 17);
        let clone = rng.clone();
        assert_eq!(clone.word_pos(), 17);
        for _ in 0..127 {
            rng.next_u32();
        }
        assert_eq!(rng.word_pos(), 144);
        rng.next_u32();
        assert_eq!(rng.word_pos(), 145);
        assert_eq!(clone.word_pos(), 17, "a clone keeps its own position");
    }

    /// The reference stream: consecutive blocks from the scalar [`block`],
    /// one at a time, read through the `rand` shim's default `next_u64`
    /// and `fill_bytes`.
    struct Oracle {
        key: [u32; 8],
        counter: u64,
        words: std::collections::VecDeque<u32>,
    }

    impl RngCore for Oracle {
        fn next_u32(&mut self) -> u32 {
            if self.words.is_empty() {
                self.words.extend(block(&self.key, self.counter));
                self.counter = self.counter.wrapping_add(1);
            }
            self.words.pop_front().expect("a block was just added")
        }
    }

    impl Oracle {
        /// Words consumed, modulo 2^68.
        fn word_pos(&self) -> u128 {
            let end = u128::from(self.counter) * BLOCK_WORDS as u128;
            (end + (1 << 68) - self.words.len() as u128) % (1 << 68)
        }
    }

    /// A generator and its oracle at block `counter` under `key`.
    fn pair_at(key: [u32; 8], counter: u64) -> (ChaCha8Rng, Oracle) {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        rng.key = key;
        rng.counter = counter;
        let oracle = Oracle {
            key,
            counter,
            words: Default::default(),
        };
        (rng, oracle)
    }

    /// Reads with `pattern`, cycled, until at least `words` keystream
    /// words are consumed; returns every byte returned, words
    /// little-endian.
    fn read_words(rng: &mut impl RngCore, pattern: &[Read], words: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut used = 0;
        for read in pattern.iter().cycle() {
            if used >= words {
                break;
            }
            match *read {
                Read::U32 => {
                    out.extend_from_slice(&rng.next_u32().to_le_bytes());
                    used += 1;
                }
                Read::U64 => {
                    out.extend_from_slice(&rng.next_u64().to_le_bytes());
                    used += 2;
                }
                Read::Bytes(n) => {
                    let mut bytes = vec![0u8; n];
                    rng.fill_bytes(&mut bytes);
                    out.extend_from_slice(&bytes);
                    used += n.div_ceil(4);
                }
            }
        }
        out
    }

    /// SplitMix64: test inputs from a source independent of ChaCha.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_key(state: &mut u64) -> [u32; 8] {
        [0; 8].map(|_| splitmix(state) as u32)
    }

    /// Random counters, and counters whose eight blocks carry from word
    /// 12 into word 13 or wrap past `u64::MAX`, at every lane.
    fn oracle_counters(state: &mut u64) -> Vec<u64> {
        let mut counters = vec![0, splitmix(state), splitmix(state) >> 32];
        for back in 1..=BUF_BLOCKS {
            counters.push((1 << 32) - back);
            counters.push(u64::MAX - back + 1);
            counters.push((splitmix(state) | 0xFFFF_FFFF) - back + 1);
        }
        counters
    }

    #[test]
    fn every_refill_path_matches_the_block_function() {
        let mut state = 0x5EED;
        for _ in 0..16 {
            let key = random_key(&mut state);
            for counter in oracle_counters(&mut state) {
                let at = format!("key {key:08x?}, counter {counter:#x}");
                let mut want = [0; BUF_WORDS];
                eight_blocks_scalar(&key, counter, &mut want);
                // The refill as dispatched: in AVX2 lanes when this CPU
                // reports AVX2, else in SSE2 lanes, else the scalar block.
                let mut got = [0; BUF_WORDS];
                eight_blocks(&key, counter, &mut got);
                assert_eq!(got, want, "{at}");
                // The SSE2 fallback, on every x86_64 CPU.
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                {
                    let mut sse2 = [0; BUF_WORDS];
                    eight_blocks_sse2(&key, counter, &mut sse2);
                    assert_eq!(sse2, want, "SSE2, {at}");
                }
            }
        }
    }

    /// Read patterns that put `u64`s and partial `fill_bytes` words at
    /// odd and even word offsets.
    const PATTERNS: [&[Read]; 5] = [
        &[Read::U32],
        &[Read::U64],
        &[Read::Bytes(7)],
        &[Read::U64, Read::U32, Read::U64, Read::Bytes(5)],
        &PATTERN,
    ];

    #[test]
    fn reads_at_every_buffer_offset_match_the_oracle() {
        // Past two refills after the offset, so reads cross refills at
        // every alignment.
        const READ_WORDS: usize = 2 * BUF_WORDS + 3;
        let mut state = 0xF00D;
        for _ in 0..4 {
            let key = random_key(&mut state);
            for counter in oracle_counters(&mut state) {
                for offset in 0..=BUF_WORDS {
                    for pattern in PATTERNS {
                        let (mut rng, mut oracle) = pair_at(key, counter);
                        for _ in 0..offset {
                            assert_eq!(rng.next_u32(), oracle.next_u32());
                        }
                        let mut clone = rng.clone();
                        let want = read_words(&mut oracle, pattern, READ_WORDS);
                        let at = format!("counter {counter:#x}, offset {offset}");
                        assert_eq!(read_words(&mut rng, pattern, READ_WORDS), want, "{at}");
                        assert_eq!(rng.word_pos(), oracle.word_pos(), "{at}");
                        let got = read_words(&mut clone, pattern, READ_WORDS);
                        assert_eq!(got, want, "clone at {at}");
                        assert_eq!(clone.word_pos(), oracle.word_pos(), "clone at {at}");
                    }
                }
            }
        }
    }

    /// A generator started at block `start` and its oracle, read word by
    /// word up to the generator's next refill at block 0.
    fn pair_before_block_zero(key: [u32; 8], start: u64) -> (ChaCha8Rng, Oracle) {
        let (mut rng, mut oracle) = pair_at(key, start);
        while rng.counter != 0 || rng.index < BUF_WORDS {
            assert_eq!(rng.next_u32(), oracle.next_u32());
        }
        (rng, oracle)
    }

    #[test]
    fn the_first_refill_computes_block_zero_alone() {
        // Past block 0 and the eight-block refill after it.
        const READ_WORDS: usize = BLOCK_WORDS + BUF_WORDS + 3;
        let mut state = 0xF125;
        for _ in 0..4 {
            let key = random_key(&mut state);
            // A fresh generator, and one whose counter wraps to 0 after
            // the keystream's last eight blocks.
            for start in [0, BUF_BLOCKS.wrapping_neg()] {
                let (mut rng, mut oracle) = pair_before_block_zero(key, start);
                for word in 0..READ_WORDS {
                    let at = format!("start {start:#x}, word {word}");
                    assert_eq!(rng.word_pos(), oracle.word_pos(), "{at}");
                    assert_eq!(rng.next_u32(), oracle.next_u32(), "{at}");
                    // Blocks computed since block 0: that block alone,
                    // then eight per refill.
                    let refills = ((word + BUF_WORDS - BLOCK_WORDS) / BUF_WORDS) as u64;
                    assert_eq!(rng.counter, 1 + BUF_BLOCKS * refills, "{at}");
                }
                assert_eq!(rng.word_pos(), oracle.word_pos(), "start {start:#x}");

                // Every pattern across the boundary between the two
                // refills, from odd and even words.
                for skip in 0..3 {
                    for pattern in PATTERNS {
                        let (mut rng, mut oracle) = pair_before_block_zero(key, start);
                        for _ in 0..skip {
                            assert_eq!(rng.next_u32(), oracle.next_u32());
                        }
                        let want = read_words(&mut oracle, pattern, READ_WORDS);
                        let at = format!("start {start:#x}, skip {skip}");
                        assert_eq!(read_words(&mut rng, pattern, READ_WORDS), want, "{at}");
                        assert_eq!(rng.word_pos(), oracle.word_pos(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn keystream_words_look_uniform() {
        // Cheap sanity check: bit balance over a few thousand words.
        let mut r = ChaCha8Rng::seed_from_u64(1234);
        let mut ones = 0u64;
        const N: u64 = 4096;
        for _ in 0..N {
            ones += r.next_u32().count_ones() as u64;
        }
        let frac = ones as f64 / (N as f64 * 32.0);
        assert!((frac - 0.5).abs() < 0.01, "bit fraction {frac}");
    }
}
