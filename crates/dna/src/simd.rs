//! Runtime-dispatched SIMD kernels for the ASCII hot paths of the DNA layer.
//!
//! Stage 1 of the pipeline spends its time in three byte-granular inner loops: ASCII →
//! 2-bit packing ([`DnaSeq::from_ascii`](crate::sequence::DnaSeq::from_ascii) and the
//! streaming readers' fragment splitter), ambiguity scanning (the `io.rs` readers cut
//! fragments at every non-`ACGT` character), and the wire re-packing of
//! [`append_packed_range`](crate::sequence::DnaSeq::append_packed_range). This module
//! provides vectorised kernels for all three with `core::arch::x86_64` intrinsics
//! (SSE2 and AVX2), selected once at runtime via `is_x86_feature_detected!` and cached.
//! The scalar loops are kept as the portable fallback **and** as the reference
//! implementation the property tests pin the SIMD paths against, byte for byte.
//!
//! Dispatch hygiene: [`level`] computes the active [`SimdLevel`] exactly once per
//! process (a `OnceLock`), honouring the `HYSORTK_NO_SIMD=1` escape hatch that forces
//! the scalar path; [`path_name`] is the label the pipeline surfaces in `RunReport`.

use crate::base::encode_base;

/// Which instruction set the dispatched kernels use for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (non-x86 targets, pre-SSE2 CPUs, or `HYSORTK_NO_SIMD=1`).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on `x86_64`).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

struct Dispatch {
    level: SimdLevel,
    name: &'static str,
}

static DISPATCH: std::sync::OnceLock<Dispatch> = std::sync::OnceLock::new();

fn detect() -> Dispatch {
    let forced_off = std::env::var_os("HYSORTK_NO_SIMD")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced_off {
        return Dispatch {
            level: SimdLevel::Scalar,
            name: "scalar (HYSORTK_NO_SIMD)",
        };
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Dispatch {
                level: SimdLevel::Avx2,
                name: "avx2",
            };
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return Dispatch {
                level: SimdLevel::Sse2,
                name: "sse2",
            };
        }
    }
    Dispatch {
        level: SimdLevel::Scalar,
        name: "scalar",
    }
}

/// The SIMD level every dispatched kernel in the workspace uses, detected once and
/// cached. `HYSORTK_NO_SIMD=1` (read at first use) forces [`SimdLevel::Scalar`].
#[inline]
pub fn level() -> SimdLevel {
    DISPATCH.get_or_init(detect).level
}

/// Human-readable name of the active path (`"avx2"`, `"sse2"`, `"scalar"`, or
/// `"scalar (HYSORTK_NO_SIMD)"`) — reported in `RunReport` and the BENCH artifacts.
#[inline]
pub fn path_name() -> &'static str {
    DISPATCH.get_or_init(detect).name
}

// ---------------------------------------------------------------------------------------
// ASCII → 2-bit packing (32 bases per call)
// ---------------------------------------------------------------------------------------

/// Scalar reference: pack 32 ASCII bases into one little-position-order word (base `j`
/// at bits `2*j`), mapping unknown characters to `A` exactly like
/// [`crate::base::encode_base`].
#[inline]
pub fn pack_block32_scalar(chunk: &[u8; 32]) -> u64 {
    let mut w = 0u64;
    for (j, &c) in chunk.iter().enumerate() {
        w |= u64::from(encode_base(c)) << (2 * j);
    }
    w
}

/// Fold one u64 of byte-lane 2-bit codes (each byte holding 0..=3) down to 16 packed
/// bits: byte `j` lands at bits `2*j`. Three shift/or/mask rounds instead of eight
/// byte extractions — shared by the SSE2 path, which classifies 16 bytes at a time but
/// has no byte-shuffle instruction to finish the pack in-register.
#[inline]
fn fold_codes8(x: u64) -> u64 {
    let y = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    let z = (y | (y >> 12)) & 0x0000_00FF_0000_00FF;
    (z | (z >> 24)) & 0xFFFF
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Byte-lane 2-bit codes of 16 ASCII characters: `A/a→0 C/c→1 G/g→2 T/t→3`,
    /// everything else → 0 (the `encode_base` policy).
    ///
    /// # Safety
    ///
    /// Caller must ensure SSE2 is available (always true on `x86_64`).
    #[target_feature(enable = "sse2")]
    pub unsafe fn classify16(chunk: *const u8) -> __m128i {
        let v = _mm_loadu_si128(chunk as *const __m128i);
        // Clearing bit 5 maps lowercase onto uppercase and nothing else onto A/C/G/T.
        let up = _mm_and_si128(v, _mm_set1_epi8(!0x20u8 as i8));
        let is_c = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'C' as i8));
        let is_g = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'G' as i8));
        let is_t = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'T' as i8));
        _mm_or_si128(
            _mm_and_si128(is_c, _mm_set1_epi8(1)),
            _mm_or_si128(
                _mm_and_si128(is_g, _mm_set1_epi8(2)),
                _mm_and_si128(is_t, _mm_set1_epi8(3)),
            ),
        )
    }

    /// SSE2: pack 32 ASCII bases into one word (same contract as
    /// [`pack_block32_scalar`](super::pack_block32_scalar)).
    ///
    /// # Safety
    ///
    /// `chunk` must point at 32 readable bytes; SSE2 must be available.
    #[target_feature(enable = "sse2")]
    pub unsafe fn pack_block32_sse2(chunk: *const u8) -> u64 {
        let mut out = 0u64;
        for half in 0..2usize {
            let codes = classify16(chunk.add(16 * half));
            let mut lanes = [0u64; 2];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, codes);
            let lo = super::fold_codes8(lanes[0]);
            let hi = super::fold_codes8(lanes[1]);
            out |= (lo | (hi << 16)) << (32 * half);
        }
        out
    }

    /// AVX2: pack 32 ASCII bases into one word (same contract as
    /// [`pack_block32_scalar`](super::pack_block32_scalar)).
    ///
    /// # Safety
    ///
    /// `chunk` must point at 32 readable bytes; AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_block32_avx2(chunk: *const u8) -> u64 {
        let v = _mm256_loadu_si256(chunk as *const __m256i);
        let up = _mm256_and_si256(v, _mm256_set1_epi8(!0x20u8 as i8));
        let is_c = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'C' as i8));
        let is_g = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'G' as i8));
        let is_t = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'T' as i8));
        let codes = _mm256_or_si256(
            _mm256_and_si256(is_c, _mm256_set1_epi8(1)),
            _mm256_or_si256(
                _mm256_and_si256(is_g, _mm256_set1_epi8(2)),
                _mm256_and_si256(is_t, _mm256_set1_epi8(3)),
            ),
        );
        // Horizontal pack: byte pairs → `b0 + 4*b1` in u16 lanes, u16 pairs →
        // `p0 + 16*p1` in u32 lanes, then gather each u32 lane's low byte.
        let pairs = _mm256_maddubs_epi16(codes, _mm256_set1_epi16(0x0401));
        let quads = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0010_0001));
        let gather = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let packed = _mm256_shuffle_epi8(quads, gather);
        let lo = _mm256_extract_epi32::<0>(packed) as u32;
        let hi = _mm256_extract_epi32::<4>(packed) as u32;
        u64::from(lo) | (u64::from(hi) << 32)
    }

    /// Bitmask of the 16 bytes at `chunk` that are valid `ACGT`/`acgt` characters
    /// (bit `j` set ⇔ byte `j` valid).
    ///
    /// # Safety
    ///
    /// `chunk` must point at 16 readable bytes; SSE2 must be available.
    #[target_feature(enable = "sse2")]
    pub unsafe fn valid_mask16(chunk: *const u8) -> u32 {
        let v = _mm_loadu_si128(chunk as *const __m128i);
        let up = _mm_and_si128(v, _mm_set1_epi8(!0x20u8 as i8));
        let is_a = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'A' as i8));
        let is_c = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'C' as i8));
        let is_g = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'G' as i8));
        let is_t = _mm_cmpeq_epi8(up, _mm_set1_epi8(b'T' as i8));
        let valid = _mm_or_si128(_mm_or_si128(is_a, is_c), _mm_or_si128(is_g, is_t));
        _mm_movemask_epi8(valid) as u32
    }

    /// Bitmask of the 32 bytes at `chunk` that are valid `ACGT`/`acgt` characters.
    ///
    /// # Safety
    ///
    /// `chunk` must point at 32 readable bytes; AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn valid_mask32(chunk: *const u8) -> u32 {
        let v = _mm256_loadu_si256(chunk as *const __m256i);
        let up = _mm256_and_si256(v, _mm256_set1_epi8(!0x20u8 as i8));
        let is_a = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'A' as i8));
        let is_c = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'C' as i8));
        let is_g = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'G' as i8));
        let is_t = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'T' as i8));
        let valid = _mm256_or_si256(_mm256_or_si256(is_a, is_c), _mm256_or_si256(is_g, is_t));
        _mm256_movemask_epi8(valid) as u32
    }

    /// Shift the 64-bit word stream `words` right by `shift` bits (0, 2, …, 62) with
    /// carry-in from the following word, writing groups of four output words at a time.
    /// Returns the number of output words produced; the caller finishes the tail with
    /// the scalar loop. Requires `shift < 64`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available. `dst` must have room for `dst_words` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn shift_words_avx2(
        words: &[u64],
        shift: u32,
        dst: *mut u64,
        dst_words: usize,
    ) -> usize {
        // Lane w needs words[w] and words[w + 1]; a 4-lane load starting at w + 1 reads
        // up to words[w + 4], so stop while w + 4 is still in bounds.
        if words.len() < 5 {
            return 0;
        }
        let max_groups = ((words.len() - 5) / 4 + 1).min(dst_words / 4);
        let lo_shift = _mm_cvtsi32_si128(shift as i32);
        let hi_shift = _mm_cvtsi32_si128(64 - shift as i32);
        for g in 0..max_groups {
            let w = 4 * g;
            let lo = _mm256_loadu_si256(words.as_ptr().add(w) as *const __m256i);
            let hi = _mm256_loadu_si256(words.as_ptr().add(w + 1) as *const __m256i);
            // `_mm256_sll_epi64` with a count of 64 (shift == 0) yields zero, exactly
            // the carry the scalar path takes in that case.
            let out = _mm256_or_si256(
                _mm256_srl_epi64(lo, lo_shift),
                _mm256_sll_epi64(hi, hi_shift),
            );
            _mm256_storeu_si256(dst.add(w) as *mut __m256i, out);
        }
        max_groups * 4
    }
}

/// Pack 32 ASCII bases into one little-position-order word via the active SIMD path.
#[inline]
pub fn pack_block32(chunk: &[u8; 32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: `level()` verified the feature; `chunk` is 32 bytes by type.
        SimdLevel::Avx2 => return unsafe { x86::pack_block32_avx2(chunk.as_ptr()) },
        SimdLevel::Sse2 => return unsafe { x86::pack_block32_sse2(chunk.as_ptr()) },
        SimdLevel::Scalar => {}
    }
    pack_block32_scalar(chunk)
}

// ---------------------------------------------------------------------------------------
// Ambiguity scanning
// ---------------------------------------------------------------------------------------

/// Scalar reference for [`first_non_acgt`].
#[inline]
pub fn first_non_acgt_scalar(s: &[u8]) -> usize {
    s.iter()
        .position(|&c| crate::base::Base::from_ascii(c).is_none())
        .unwrap_or(s.len())
}

/// Index of the first character that is not `ACGT`/`acgt` (or `s.len()` if all are
/// valid) — the fragment splitter's cut scanner, vectorised.
#[inline]
pub fn first_non_acgt(s: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        let lvl = level();
        if lvl == SimdLevel::Avx2 {
            let mut i = 0usize;
            while i + 32 <= s.len() {
                // SAFETY: AVX2 verified by `level()`; 32 bytes in bounds.
                let mask = unsafe { x86::valid_mask32(s.as_ptr().add(i)) };
                if mask != u32::MAX {
                    return i + (!mask).trailing_zeros() as usize;
                }
                i += 32;
            }
            return i + first_non_acgt_scalar(&s[i..]);
        }
        if lvl == SimdLevel::Sse2 {
            let mut i = 0usize;
            while i + 16 <= s.len() {
                // SAFETY: SSE2 verified by `level()`; 16 bytes in bounds.
                let mask = unsafe { x86::valid_mask16(s.as_ptr().add(i)) };
                if mask != 0xFFFF {
                    return i + (!mask).trailing_zeros() as usize;
                }
                i += 16;
            }
            return i + first_non_acgt_scalar(&s[i..]);
        }
    }
    first_non_acgt_scalar(s)
}

// ---------------------------------------------------------------------------------------
// Wire re-packing (append_packed_range)
// ---------------------------------------------------------------------------------------

/// Produce `dst.len()` words of the stream `words >> shift` (each output word `w` is
/// `(words[w] >> shift) | (words[w+1] << (64 - shift))`, with missing high words read
/// as zero). `shift` must be even and < 64. AVX2 processes four words per iteration;
/// the scalar loop is the reference and the tail handler.
pub fn shift_word_stream(words: &[u64], shift: u32, dst: &mut [u64]) {
    debug_assert!(shift < 64);
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 verified; bounds enforced inside.
        done = unsafe { x86::shift_words_avx2(words, shift, dst.as_mut_ptr(), dst.len()) };
    }
    for (w, slot) in dst.iter_mut().enumerate().skip(done) {
        let lo = words[w] >> shift;
        *slot = if shift > 0 && w + 1 < words.len() {
            lo | (words[w + 1] << (64 - shift))
        } else {
            lo
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned_ascii(len: usize, salt: usize) -> Vec<u8> {
        // Mixed-case valid bases with occasional ambiguity characters.
        (0..len)
            .map(|i| match (i * 7 + salt) % 11 {
                0 => b'a',
                1 => b'N',
                2 => b'c',
                3 => b'g',
                4 => b't',
                5 => b'X',
                k => b"ACGT"[k % 4],
            })
            .collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        assert_eq!(level(), level());
        let name = path_name();
        match level() {
            SimdLevel::Avx2 => assert_eq!(name, "avx2"),
            SimdLevel::Sse2 => assert_eq!(name, "sse2"),
            SimdLevel::Scalar => assert!(name.starts_with("scalar")),
        }
    }

    #[test]
    fn dispatched_pack_matches_scalar_reference() {
        for salt in 0..8 {
            let data = patterned_ascii(32, salt);
            let chunk: &[u8; 32] = data.as_slice().try_into().unwrap();
            assert_eq!(
                pack_block32(chunk),
                pack_block32_scalar(chunk),
                "salt={salt}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_available_pack_kernel_matches_scalar() {
        // Exercise the arch kernels directly (not just the dispatched one) so AVX2
        // machines still cover the SSE2 path. All 256 byte values appear, pinning the
        // unknown→A policy byte for byte.
        let mut data = vec![0u8; 256 + 32];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 256) as u8;
        }
        for off in 0..=256 {
            let chunk: &[u8; 32] = data[off..off + 32].try_into().unwrap();
            let want = pack_block32_scalar(chunk);
            if std::arch::is_x86_feature_detected!("sse2") {
                assert_eq!(
                    unsafe { x86::pack_block32_sse2(chunk.as_ptr()) },
                    want,
                    "sse2 off={off}"
                );
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                assert_eq!(
                    unsafe { x86::pack_block32_avx2(chunk.as_ptr()) },
                    want,
                    "avx2 off={off}"
                );
            }
        }
    }

    #[test]
    fn ambiguity_scan_matches_scalar_at_every_length_and_offset() {
        // Lengths 0..=128 (4× the AVX2 lane width) with the ambiguity character swept
        // across every position, plus unaligned starting offsets.
        for len in 0..=128usize {
            let clean: Vec<u8> = (0..len).map(|i| b"acgtACGT"[i % 8]).collect();
            assert_eq!(first_non_acgt(&clean), len, "clean len={len}");
            for bad in 0..len {
                let mut s = clean.clone();
                s[bad] = b'N';
                assert_eq!(first_non_acgt(&s), bad, "len={len} bad={bad}");
                assert_eq!(first_non_acgt_scalar(&s), bad);
            }
        }
        let big = patterned_ascii(513, 3);
        for off in 0..67 {
            assert_eq!(
                first_non_acgt(&big[off..]),
                first_non_acgt_scalar(&big[off..]),
                "off={off}"
            );
        }
    }

    #[test]
    fn shift_word_stream_matches_scalar_reference() {
        let words: Vec<u64> = (0..23u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for shift in (0..64u32).step_by(2) {
            for out_len in [0usize, 1, 3, 4, 5, 8, 15, 23] {
                let mut fast = vec![0u64; out_len];
                shift_word_stream(&words, shift, &mut fast);
                let mut slow = vec![0u64; out_len];
                for (w, slot) in slow.iter_mut().enumerate() {
                    let lo = words[w] >> shift;
                    *slot = if shift > 0 && w + 1 < words.len() {
                        lo | (words[w + 1] << (64 - shift))
                    } else {
                        lo
                    };
                }
                assert_eq!(fast, slow, "shift={shift} out_len={out_len}");
            }
        }
    }
}
