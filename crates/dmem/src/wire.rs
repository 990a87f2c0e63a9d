//! Self-describing byte codec for values that cross a transport boundary.
//!
//! The in-process backend used to move typed values between ranks as `Box<dyn Any>`
//! postings — possible only because every rank shared one address space. A
//! `Transport` moves *bytes*, so every payload of a matrix collective, and every
//! per-rank result returned out of a forked rank process, needs an explicit
//! encoding. [`Wire`] is that encoding: a minimal,
//! dependency-free, little-endian format with just enough structure (length
//! prefixes, variant tags) for the receiving side to reject malformed input with
//! `None` instead of misinterpreting it.
//!
//! The hot flat exchanges do **not** pay for this codec: element types that are
//! plain bit patterns implement [`Pod`] and are reinterpreted as bytes directly
//! (see [`pod_bytes`] / [`extend_from_pod_bytes`]), exactly like an MPI datatype
//! over a contiguous buffer.

use crate::error::DmemError;
use crate::stats::{CommStats, StageTraffic};

/// A value that can be encoded to and decoded from a flat little-endian byte stream.
///
/// `decode` consumes its input slice in place (advancing it past the bytes read) and
/// returns `None` on truncated or malformed input; callers turn that into
/// [`DmemError::Protocol`].
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Encode a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value from a buffer, requiring the buffer to be fully consumed.
pub fn from_bytes<T: Wire>(mut input: &[u8]) -> Option<T> {
    let value = T::decode(&mut input)?;
    input.is_empty().then_some(value)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

fn get_u64(input: &mut &[u8]) -> Option<u64> {
    take(input, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn get_len(input: &mut &[u8]) -> Option<usize> {
    usize::try_from(get_u64(input)?).ok()
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                take(input, std::mem::size_of::<$t>())
                    .map(|b| <$t>::from_le_bytes(b.try_into().unwrap()))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(get_u64(input)?).ok()
    }
}

impl Wire for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        isize::try_from(i64::decode(input)?).ok()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u32::decode(input).map(f32::from_bits)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(f64::from_bits)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = get_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = get_len(input)?;
        // Every element costs at least one input byte in this format, so a longer
        // length is malformed; and the pre-allocation never exceeds the input bytes
        // that remain, whatever the length claims.
        if len > input.len() {
            return None;
        }
        let mut items = Vec::with_capacity(len.min(input.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Some(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => T::decode(input).map(Some),
            _ => None,
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => T::decode(input).map(Ok),
            1 => E::decode(input).map(Err),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl Wire for DmemError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DmemError::PeerFailed {
                rank,
                round,
                detail,
            } => {
                out.push(0);
                rank.encode(out);
                round.encode(out);
                detail.encode(out);
            }
            DmemError::Timeout {
                label,
                round,
                waited_ms,
            } => {
                out.push(1);
                label.encode(out);
                round.encode(out);
                waited_ms.encode(out);
            }
            DmemError::InjectedFault {
                rank,
                stage,
                round,
                kind,
            } => {
                out.push(2);
                rank.encode(out);
                stage.encode(out);
                round.encode(out);
                kind.encode(out);
            }
            DmemError::Protocol(msg) => {
                out.push(3);
                msg.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => DmemError::PeerFailed {
                rank: usize::decode(input)?,
                round: usize::decode(input)?,
                detail: String::decode(input)?,
            },
            1 => DmemError::Timeout {
                label: String::decode(input)?,
                round: usize::decode(input)?,
                waited_ms: u64::decode(input)?,
            },
            2 => DmemError::InjectedFault {
                rank: usize::decode(input)?,
                stage: String::decode(input)?,
                round: usize::decode(input)?,
                kind: String::decode(input)?,
            },
            3 => DmemError::Protocol(String::decode(input)?),
            _ => return None,
        })
    }
}

impl Wire for StageTraffic {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.payload_bytes.encode(out);
        self.padding_bytes.encode(out);
        self.rounds.encode(out);
        self.max_inflight_bytes.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(StageTraffic {
            label: String::decode(input)?,
            payload_bytes: u64::decode(input)?,
            padding_bytes: u64::decode(input)?,
            rounds: usize::decode(input)?,
            max_inflight_bytes: u64::decode(input)?,
        })
    }
}

impl Wire for CommStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.collectives.encode(out);
        self.rounds.encode(out);
        self.payload_bytes.encode(out);
        self.padding_bytes.encode(out);
        self.sent_to.encode(out);
        self.max_round_pair_bytes.encode(out);
        self.max_inflight_bytes.encode(out);
        self.stages.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CommStats {
            collectives: usize::decode(input)?,
            rounds: usize::decode(input)?,
            payload_bytes: u64::decode(input)?,
            padding_bytes: u64::decode(input)?,
            sent_to: Vec::decode(input)?,
            max_round_pair_bytes: u64::decode(input)?,
            max_inflight_bytes: u64::decode(input)?,
            stages: Vec::decode(input)?,
        })
    }
}

/// A plain-bit-pattern element type: every byte sequence of the right length is a
/// valid value and the type carries no pointers or padding. Flat exchanges
/// reinterpret `Vec<Pod>` buffers as bytes with no per-element encoding, exactly
/// like an MPI datatype over a contiguous buffer.
///
/// # Safety
///
/// Implementors must guarantee the type has no padding bytes, no interior
/// pointers/references, and that any bit pattern of `size_of::<Self>()` bytes is a
/// valid value.
pub unsafe trait Pod: Copy + Send + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for u128 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// View a `Pod` slice as raw bytes (native byte order — both backends run every
/// rank on the same machine, so no swapping is needed).
pub fn pod_bytes<T: Pod>(items: &[T]) -> &[u8] {
    // SAFETY: Pod guarantees no padding and no pointers; any T is valid bytes.
    unsafe { std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items)) }
}

/// Append the `Pod` values encoded in `bytes` to `dst`. Returns `None` when
/// `bytes` is not a whole number of elements. The copy goes through an unaligned
/// read so arbitrarily-offset wire buffers are fine.
pub fn extend_from_pod_bytes<T: Pod>(dst: &mut Vec<T>, bytes: &[u8]) -> Option<()> {
    let elem = std::mem::size_of::<T>();
    if elem == 0 || !bytes.len().is_multiple_of(elem) {
        return None;
    }
    let n = bytes.len() / elem;
    dst.reserve(n);
    // SAFETY: the destination has `n` elements of reserved capacity, the source
    // holds exactly `n * size_of::<T>()` bytes, and Pod makes any bit pattern a
    // valid T. `copy_nonoverlapping` handles the unaligned source.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            dst.as_mut_ptr().add(dst.len()).cast::<u8>(),
            bytes.len(),
        );
        dst.set_len(dst.len() + n);
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(
            from_bytes::<u64>(&to_bytes(&0xdead_beefu64)),
            Some(0xdead_beef)
        );
        assert_eq!(from_bytes::<usize>(&to_bytes(&42usize)), Some(42));
        assert_eq!(from_bytes::<i64>(&to_bytes(&-7i64)), Some(-7));
        assert_eq!(from_bytes::<bool>(&to_bytes(&true)), Some(true));
        assert_eq!(from_bytes::<f64>(&to_bytes(&1.5f64)), Some(1.5));
        let nan = from_bytes::<f64>(&to_bytes(&f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec!["a".to_string(), "bc".to_string()];
        assert_eq!(from_bytes::<Vec<String>>(&to_bytes(&v)), Some(v));
        let opt: Option<u32> = Some(9);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&opt)), Some(opt));
        let res: Result<u32, String> = Err("boom".to_string());
        assert_eq!(
            from_bytes::<Result<u32, String>>(&to_bytes(&res)),
            Some(res)
        );
        let tup = (1u8, "x".to_string(), 3u64);
        assert_eq!(from_bytes::<(u8, String, u64)>(&to_bytes(&tup)), Some(tup));
    }

    #[test]
    fn malformed_input_is_rejected_not_misread() {
        // Truncated payload.
        let mut bytes = to_bytes(&"hello".to_string());
        bytes.pop();
        assert_eq!(from_bytes::<String>(&bytes), None);
        // Trailing garbage.
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), None);
        // Bad variant tag.
        assert_eq!(from_bytes::<Option<u8>>(&[9, 0]), None);
        // Length prefix far beyond the buffer must not allocate or panic.
        let mut huge = Vec::new();
        u64::MAX.encode(&mut huge);
        assert_eq!(from_bytes::<Vec<u64>>(&huge), None);
    }

    #[test]
    fn dmem_error_and_comm_stats_round_trip() {
        let errs = vec![
            DmemError::PeerFailed {
                rank: 3,
                round: 1,
                detail: "died".to_string(),
            },
            DmemError::Timeout {
                label: "exchange".to_string(),
                round: 2,
                waited_ms: 30_000,
            },
            DmemError::InjectedFault {
                rank: 0,
                stage: "exchange".to_string(),
                round: 0,
                kind: "fail-rank".to_string(),
            },
            DmemError::Protocol("bad".to_string()),
        ];
        for e in errs {
            assert_eq!(from_bytes::<DmemError>(&to_bytes(&e)), Some(e));
        }

        let mut stats = CommStats::new(3);
        stats.record("stage-a", &[1, 2, 3], 4, 2, 0, 3);
        stats.record_with_inflight("stage-b", &[0, 9, 9], 0, 1, 0, 9, 18);
        assert_eq!(from_bytes::<CommStats>(&to_bytes(&stats)), Some(stats));
    }

    #[test]
    fn pod_bytes_round_trip_handles_unaligned_sources() {
        let items = vec![1u64, u64::MAX, 0x0102_0304_0506_0708];
        let bytes = pod_bytes(&items);
        assert_eq!(bytes.len(), 24);
        // Prepend one byte so the decode source is misaligned for u64.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(bytes);
        let mut out: Vec<u64> = Vec::new();
        extend_from_pod_bytes(&mut out, &shifted[1..]).unwrap();
        assert_eq!(out, items);
        // A ragged length is rejected.
        assert!(extend_from_pod_bytes(&mut out, &shifted[1..10]).is_none());
    }
}
