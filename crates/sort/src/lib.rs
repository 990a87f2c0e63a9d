//! Parallel radix sorting substrate.
//!
//! HySortK replaces the distributed hash table with "sort the receive buffer, then scan
//! it linearly" (paper §3.1). Two radix sorts are provided, mirroring the two the paper
//! uses:
//!
//! * [`paradis::paradis_sort_by`] — an **in-place MSD** radix sort modelled on PARADIS
//!   (Cho et al., VLDB 2015): speculative parallel permutation into bucket stripes, a
//!   repair pass, then parallel recursion into buckets. Requires no auxiliary array, so
//!   it is the sorter HySortK falls back to when memory is tight.
//! * [`raduls::raduls_sort_by`] — an **out-of-place LSD** radix sort modelled on RADULS
//!   (Kokot et al., BDAS 2017): per-chunk histograms, stable parallel scatter between
//!   ping-pong buffers. Faster, but needs a second buffer of the same size.
//!
//! Two kinds of entry points are provided:
//!
//! * **Closure-generic**: the caller supplies the number of radix levels and a
//!   `digit(item, level) -> u8` closure with level 0 the **most significant** digit.
//!   This keeps the crate independent of the k-mer representation (k is a runtime
//!   value) and is what the baselines use.
//! * **Monomorphized kernels** ([`raduls::raduls_sort`], [`paradis::paradis_sort`]):
//!   for types implementing [`RadixKey`] — keys exposed as raw big-endian `u64` words —
//!   the digit loop compiles down to a shift/mask word access with no per-item-per-level
//!   indirection, and the RADULS kernel additionally uses compact per-chunk `u32`
//!   histograms and a precomputed-offset pointer scatter. These are the pipeline's hot
//!   paths.
//!
//! [`select_sorter`] reproduces HySortK's memory-aware choice between the two radix
//! sorts, and [`runs::count_sorted_runs`] is the linear counting scan applied after
//! sorting.

pub mod paradis;
pub mod raduls;
pub mod runs;

pub use paradis::{paradis_sort, paradis_sort_by, paradis_sort_from};
pub use raduls::{raduls_sort, raduls_sort_by, raduls_sort_with_aux};
pub use runs::{count_sorted_runs, for_each_sorted_run, kway_merge_by_key, merge_runs_with_counts};

/// Keys that can expose themselves as raw big-endian `u64` words, enabling the
/// monomorphized radix kernels.
///
/// The logical key is the concatenation `key_word(0) ‖ key_word(1) ‖ …` compared as a
/// big integer; radix level `l` is byte `l` of that concatenation, most significant
/// first. Types whose meaningful bits occupy only the low end (e.g. a `2k`-bit k-mer in
/// `⌈k/32⌉` words) simply expose leading zero bytes — both kernels skip levels whose
/// digit is constant across the input, so the padding costs one histogram check, not a
/// scatter pass.
pub trait RadixKey: Copy + Send + Sync {
    /// Number of 64-bit key words, most significant first.
    const KEY_WORDS: usize;
    /// Total radix levels (bytes) in the key: `8 * KEY_WORDS`.
    const KEY_LEVELS: usize = 8 * Self::KEY_WORDS;
    /// The `w`-th key word (`w < KEY_WORDS`), most significant first.
    fn key_word(&self, w: usize) -> u64;
}

/// Branch-free digit extraction for [`RadixKey`] types: byte `level` of the
/// concatenated key words, most significant first.
#[inline(always)]
pub fn radix_digit<T: RadixKey>(item: &T, level: usize) -> u8 {
    (item.key_word(level >> 3) >> ((7 - (level & 7)) << 3)) as u8
}

impl RadixKey for u64 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        *self
    }
}

impl RadixKey for u32 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        u64::from(*self)
    }
}

impl RadixKey for u16 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        u64::from(*self)
    }
}

impl RadixKey for u128 {
    const KEY_WORDS: usize = 2;
    #[inline(always)]
    fn key_word(&self, w: usize) -> u64 {
        if w == 0 {
            (*self >> 64) as u64
        } else {
            *self as u64
        }
    }
}

/// Records sort by their first field; the payload rides along. This is how the pipeline
/// sorts `(k-mer, extension)` pairs without a closure in the inner loop.
impl<K: RadixKey, P: Copy + Send + Sync> RadixKey for (K, P) {
    const KEY_WORDS: usize = K::KEY_WORDS;
    #[inline(always)]
    fn key_word(&self, w: usize) -> u64 {
        self.0.key_word(w)
    }
}

/// Internal abstraction that lets one sorter implementation serve both the
/// closure-generic entry points and the monomorphized [`RadixKey`] kernels: each
/// instantiation monomorphizes the inner loops, so the `KeyDigits` path compiles to a
/// direct shift/mask with no closure in sight.
pub(crate) trait DigitSource<T>: Sync {
    fn digit(&self, item: &T, level: usize) -> u8;
}

pub(crate) struct ClosureDigits<F>(pub F);

impl<T, F: Fn(&T, usize) -> u8 + Sync> DigitSource<T> for ClosureDigits<F> {
    #[inline(always)]
    fn digit(&self, item: &T, level: usize) -> u8 {
        (self.0)(item, level)
    }
}

pub(crate) struct KeyDigits;

impl<T: RadixKey> DigitSource<T> for KeyDigits {
    #[inline(always)]
    fn digit(&self, item: &T, level: usize) -> u8 {
        radix_digit(item, level)
    }
}

/// Items with a fixed-width radix representation (convenience for tests and simple
/// payloads; the pipelines use the closure-based entry points directly).
pub trait RadixDigits: Copy + Send + Sync {
    /// Number of radix levels (bytes) in the key.
    const LEVELS: usize;
    /// The `level`-th byte of the key, level 0 = most significant.
    fn digit(&self, level: usize) -> u8;
}

impl RadixDigits for u64 {
    const LEVELS: usize = 8;
    #[inline]
    fn digit(&self, level: usize) -> u8 {
        (self >> (8 * (7 - level))) as u8
    }
}

impl RadixDigits for u32 {
    const LEVELS: usize = 4;
    #[inline]
    fn digit(&self, level: usize) -> u8 {
        (self >> (8 * (3 - level))) as u8
    }
}

/// Sort a slice of [`RadixDigits`] items in place with the PARADIS-like sorter.
pub fn radix_sort<T: RadixDigits>(data: &mut [T]) {
    paradis_sort_by(data, T::LEVELS, |x, l| x.digit(l));
}

/// Which sorting algorithm HySortK selects for the local counting stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorterKind {
    /// Out-of-place LSD radix sort (RADULS-like) — faster, needs an auxiliary buffer.
    Raduls,
    /// In-place MSD radix sort (PARADIS-like) — slower, near-zero extra memory.
    Paradis,
}

/// Memory-aware sorter selection (paper §3.1): after the exchange phase each process
/// inspects the available memory; if an auxiliary buffer of `payload_bytes` (plus some
/// headroom) fits, the faster out-of-place sorter is used, otherwise the in-place one.
pub fn select_sorter(payload_bytes: usize, available_bytes: usize) -> SorterKind {
    // RADULS needs the auxiliary array plus per-thread histograms; 1.1× headroom keeps
    // the decision conservative, matching the paper's description of reading the system
    // state and switching only when clearly safe.
    let needed = payload_bytes + payload_bytes / 10;
    if available_bytes >= needed {
        SorterKind::Raduls
    } else {
        SorterKind::Paradis
    }
}

/// Sort with whichever algorithm [`select_sorter`] picked.
pub fn sort_with<T, F>(kind: SorterKind, data: &mut [T], levels: usize, digit: F)
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T, usize) -> u8 + Sync,
{
    match kind {
        SorterKind::Raduls => raduls_sort_by(data, levels, digit),
        SorterKind::Paradis => paradis_sort_by(data, levels, digit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_digits_are_msb_first() {
        let x: u64 = 0x0102030405060708;
        assert_eq!(x.digit(0), 0x01);
        assert_eq!(x.digit(7), 0x08);
    }

    #[test]
    fn selection_prefers_raduls_when_memory_allows() {
        assert_eq!(select_sorter(1_000_000, 10_000_000), SorterKind::Raduls);
        assert_eq!(select_sorter(1_000_000, 1_000_000), SorterKind::Paradis);
        assert_eq!(select_sorter(1_000_000, 0), SorterKind::Paradis);
    }

    #[test]
    fn radix_sort_convenience_sorts() {
        let mut v: Vec<u64> = (0..2000u64)
            .rev()
            .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sort_with_dispatches_both_kinds() {
        for kind in [SorterKind::Raduls, SorterKind::Paradis] {
            let mut v: Vec<u64> = (0..500u64)
                .map(|x| x.wrapping_mul(2654435761).rotate_left(7))
                .collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            sort_with(kind, &mut v, 8, RadixDigits::digit);
            assert_eq!(v, expected, "kind {kind:?}");
        }
    }
}
