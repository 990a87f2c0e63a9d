//! Wire format of the exchange stage.
//!
//! Each destination rank receives a byte stream made of *task blocks*. A block carries
//! the task id, the payload kind and the payload itself:
//!
//! * **Supermer blocks** — the normal path: supermer headers (read id, start offset,
//!   base length) followed by 2-bit packed bases. The receiver re-extracts the k-mers;
//!   provenance (extension information) is implied by the header, which is one of the
//!   reasons the supermer path needs no separate extension exchange.
//! * **Kmerlist blocks** — the heavy-hitter path (§3.5): pre-aggregated
//!   `(k-mer, count)` tuples.
//! * **Record blocks** — the non-supermer ablation path: individual k-mers, optionally
//!   followed by raw or delta-compressed extension records (§3.3.2).
//!
//! Serialising to real bytes (rather than exchanging Rust structs) keeps the traffic
//! accounting of the simulated cluster byte-accurate.
//!
//! Parsing is **zero-copy**: [`read_blocks`] validates the stream structure in one walk
//! and returns [`TaskBlockView`]s whose payloads borrow the receive buffer. Items are
//! decoded on demand by the view iterators — no payload byte is ever copied into an
//! intermediate buffer. The owned [`TaskPayload`] remains the write-side input (and is
//! available from a view via [`TaskBlockView::to_owned_block`] for tests and tooling).

use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::sequence::DnaSeq;
use hysortk_supermer::codec::{decode_extensions_slice, encode_extensions};
use hysortk_supermer::supermer::Supermer;

use std::fmt;
use std::marker::PhantomData;

/// Why a wire stream failed to parse. Every variant carries the byte offset at which
/// the stream went wrong, so an error names the exact defect instead of panicking on
/// attacker-shaped bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended in the middle of a block.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A block declared an unknown payload kind.
    BadKind {
        /// The unknown kind byte.
        kind: u8,
        /// Byte offset of the kind byte.
        offset: usize,
    },
    /// A records block declared an unknown extension encoding, or its compressed
    /// extension stream failed to decode.
    BadExtension {
        /// Byte offset of the extension section.
        offset: usize,
    },
    /// A length field implies a payload larger than addressable memory.
    Oversized {
        /// Byte offset of the offending length field.
        offset: usize,
    },
    /// The block's trailing checksum did not match its bytes — the payload was
    /// corrupted in flight.
    Checksum {
        /// Task id the corrupted block claimed.
        task: u32,
        /// Byte offset at which the block started.
        offset: usize,
    },
    /// A task's decoded k-mer total disagrees with the globally allreduced task size.
    /// Every block parsed cleanly, yet data was lost or duplicated in flight — e.g. a
    /// segment truncated at an exact block boundary, which per-block checksums cannot
    /// see.
    CountMismatch {
        /// Task id whose totals disagree.
        task: u32,
        /// K-mer instances the task-size allreduce agreed on.
        expected: u64,
        /// K-mer instances actually decoded.
        got: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { offset } => {
                write!(f, "wire stream truncated at byte {offset}")
            }
            WireError::BadKind { kind, offset } => {
                write!(f, "unknown block kind {kind} at byte {offset}")
            }
            WireError::BadExtension { offset } => {
                write!(f, "malformed extension section at byte {offset}")
            }
            WireError::Oversized { offset } => {
                write!(f, "oversized length field at byte {offset}")
            }
            WireError::Checksum { task, offset } => {
                write!(
                    f,
                    "checksum mismatch in block for task {task} starting at byte {offset}"
                )
            }
            WireError::CountMismatch {
                task,
                expected,
                got,
            } => {
                write!(
                    f,
                    "task {task} decoded {got} k-mers but the task-size allreduce \
                     agreed on {expected} — wire data lost or duplicated"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Codec for shipping a parse defect across a process-backend control socket: the
/// variant as a tag byte, then its fields. Rank errors must survive the trip back
/// to the parent unchanged, or a corrupted segment in a forked rank would degrade
/// into an unexplained "rank exited" report.
impl hysortk_dmem::Wire for WireError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireError::Truncated { offset } => {
                0u8.encode(out);
                offset.encode(out);
            }
            WireError::BadKind { kind, offset } => {
                1u8.encode(out);
                kind.encode(out);
                offset.encode(out);
            }
            WireError::BadExtension { offset } => {
                2u8.encode(out);
                offset.encode(out);
            }
            WireError::Oversized { offset } => {
                3u8.encode(out);
                offset.encode(out);
            }
            WireError::Checksum { task, offset } => {
                4u8.encode(out);
                task.encode(out);
                offset.encode(out);
            }
            WireError::CountMismatch {
                task,
                expected,
                got,
            } => {
                5u8.encode(out);
                task.encode(out);
                expected.encode(out);
                got.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => WireError::Truncated {
                offset: usize::decode(input)?,
            },
            1 => WireError::BadKind {
                kind: u8::decode(input)?,
                offset: usize::decode(input)?,
            },
            2 => WireError::BadExtension {
                offset: usize::decode(input)?,
            },
            3 => WireError::Oversized {
                offset: usize::decode(input)?,
            },
            4 => WireError::Checksum {
                task: u32::decode(input)?,
                offset: usize::decode(input)?,
            },
            5 => WireError::CountMismatch {
                task: u32::decode(input)?,
                expected: u64::decode(input)?,
                got: u64::decode(input)?,
            },
            _ => return None,
        })
    }
}

/// The crate's one byte checksum: a multiply–rotate fold over little-endian 64-bit
/// words (the tail zero-padded), finished with the byte length. Not cryptographic,
/// but any single bit flip, truncation or length change moves it. Checkpoint
/// manifests, the task-size hash and the run fingerprint use it at full width.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(23);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(23);
    }
    h ^ bytes.len() as u64
}

/// [`checksum64`] folded to 32 bits: the trailer guarding each task block (appended
/// after the payload by every writer and verified by [`read_blocks`], so a bit
/// flipped in flight surfaces as [`WireError::Checksum`] instead of a silently wrong
/// histogram) and each checkpoint manifest.
pub(crate) fn checksum32(bytes: &[u8]) -> u32 {
    let h = checksum64(bytes);
    (h ^ (h >> 32)) as u32
}

/// Append the checksum of `out[block_start..]` — call once per finished block.
fn seal_block(out: &mut Vec<u8>, block_start: usize) {
    let sum = checksum32(&out[block_start..]);
    push_u32(out, sum);
}

/// Payload of one task block (owned form, used by the writers).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPayload<K: KmerCode> {
    /// Supermers (normal tasks).
    Supermers(Vec<Supermer>),
    /// Pre-aggregated `(canonical k-mer, count)` tuples (heavy-hitter tasks).
    KmerList(Vec<(K, u64)>),
    /// Individual canonical k-mers with optional extension records (ablation path).
    Records(Vec<K>, Option<Vec<Extension>>),
}

/// An owned task block (materialised from a [`TaskBlockView`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBlock<K: KmerCode> {
    /// Task this block belongs to.
    pub task: u32,
    /// The payload.
    pub payload: TaskPayload<K>,
}

const KIND_SUPERMERS: u8 = 0;
const KIND_KMERLIST: u8 = 1;
const KIND_RECORDS: u8 = 2;

const EXT_NONE: u8 = 0;
const EXT_RAW: u8 = 1;
const EXT_COMPRESSED: u8 = 2;

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let raw: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(raw))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let raw: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(raw))
}

fn push_kmer<K: KmerCode>(buf: &mut Vec<u8>, kmer: &K) {
    for &w in kmer.word_slice() {
        push_u64(buf, w);
    }
}

/// Decode one k-mer from its wire words. The words *are* the packed representation
/// ([`KmerCode::word_slice`]), so this is a direct word copy, not an O(k) rebuild.
fn read_kmer<K: KmerCode>(buf: &[u8], pos: &mut usize) -> Option<K> {
    let mut words = [0u64; 2];
    for w in words.iter_mut().take(K::WORDS) {
        *w = read_u64(buf, pos)?;
    }
    Some(K::from_word_slice(&words[..K::WORDS]))
}

/// Wire bytes of one k-mer.
fn kmer_wire_bytes<K: KmerCode>() -> usize {
    K::WORDS * 8
}

/// Append a `(k-mer, count)` list as a `dmem::wire` value: a `u64` length, then per
/// entry the k-mer's packed words and its count. This is the crate's one count-list
/// codec — a forked rank's result and a checkpoint manifest's counted tasks both
/// travel in it. (`K` is a foreign type, so it cannot carry a `Wire` impl itself.)
pub(crate) fn encode_counts<K: KmerCode>(counts: &[(K, u64)], out: &mut Vec<u8>) {
    out.reserve(8 + counts.len() * (kmer_wire_bytes::<K>() + 8));
    push_u64(out, counts.len() as u64);
    for (kmer, count) in counts {
        push_kmer(out, kmer);
        push_u64(out, *count);
    }
}

/// Decode a list written by [`encode_counts`] from the front of `input`, advancing
/// it. The whole list must be present before anything is allocated, so a corrupt
/// length allocates nothing.
pub(crate) fn decode_counts<K: KmerCode>(input: &mut &[u8]) -> Option<Vec<(K, u64)>> {
    let mut pos = 0;
    let n = usize::try_from(read_u64(input, &mut pos)?).ok()?;
    let stride = kmer_wire_bytes::<K>() + 8;
    let end = n
        .checked_mul(stride)
        .and_then(|b| b.checked_add(pos))
        .filter(|&end| end <= input.len())?;
    let counts = input[pos..end]
        .chunks_exact(stride)
        .map(|entry| {
            let mut at = 0;
            let kmer = read_kmer::<K>(entry, &mut at).expect("entry holds a k-mer");
            (kmer, read_u64(entry, &mut at).expect("entry holds a count"))
        })
        .collect();
    *input = &input[end..];
    Some(counts)
}

/// Serialise one task block into `out`, sealed with a trailing checksum.
pub fn write_block<K: KmerCode>(out: &mut Vec<u8>, task: u32, payload: &TaskPayload<K>) {
    let block_start = out.len();
    push_u32(out, task);
    match payload {
        TaskPayload::Supermers(supermers) => {
            out.push(KIND_SUPERMERS);
            push_u32(out, supermers.len() as u32);
            for s in supermers {
                push_u32(out, s.read_id);
                push_u32(out, s.start);
                push_u32(out, s.seq.len() as u32);
                // 2-bit packed bases, 4 per byte — word-level copy, 32 bases at a time.
                s.seq.append_packed_range(0, s.seq.len(), out);
            }
        }
        TaskPayload::KmerList(list) => {
            out.push(KIND_KMERLIST);
            push_u32(out, list.len() as u32);
            for (kmer, count) in list {
                push_kmer(out, kmer);
                push_u64(out, *count);
            }
        }
        TaskPayload::Records(kmers, exts) => {
            out.push(KIND_RECORDS);
            push_u32(out, kmers.len() as u32);
            for kmer in kmers {
                push_kmer(out, kmer);
            }
            match exts {
                None => out.push(EXT_NONE),
                Some(exts) => {
                    assert_eq!(exts.len(), kmers.len(), "one extension per k-mer");
                    // The caller decides raw vs compressed by pre-encoding; we always
                    // write the compressed stream here if it is smaller.
                    let encoded = encode_extensions(exts);
                    if encoded.wire_bytes() < encoded.uncompressed_bytes() {
                        out.push(EXT_COMPRESSED);
                        push_u32(out, encoded.bytes.len() as u32);
                        out.extend_from_slice(&encoded.bytes);
                    } else {
                        out.push(EXT_RAW);
                        for e in exts {
                            out.extend_from_slice(&e.to_bytes());
                        }
                    }
                }
            }
        }
    }
    seal_block(out, block_start);
}

/// Serialise k-mer records *without* compression (the §3.3.2 "before" case, used by the
/// communication-optimisation experiment to measure what the codec saves).
pub fn write_records_uncompressed<K: KmerCode>(
    out: &mut Vec<u8>,
    task: u32,
    kmers: &[K],
    exts: &[Extension],
) {
    let block_start = out.len();
    push_u32(out, task);
    out.push(KIND_RECORDS);
    push_u32(out, kmers.len() as u32);
    for kmer in kmers {
        push_kmer(out, kmer);
    }
    out.push(EXT_RAW);
    for e in exts {
        out.extend_from_slice(&e.to_bytes());
    }
    seal_block(out, block_start);
}

/// Streamed writer of one supermer block: the parallel parse stage serialises its
/// supermer *references* destination-major straight into the flat send buffer through
/// this writer, so no intermediate [`Supermer`] (with its owned
/// [`DnaSeq`]) is ever materialised on the send side. The base bytes are copied out of
/// the source read with the word-level
/// [`DnaSeq::append_packed_range`] — 32 bases per shift/OR.
///
/// The caller declares the supermer count up front (it is known from the staging
/// buffers) and must then [`push`](SupermerBlockWriter::push) exactly that many
/// supermers for the stream to parse back.
#[derive(Debug)]
pub struct SupermerBlockWriter<'a> {
    out: &'a mut Vec<u8>,
    block_start: usize,
    declared: u32,
    written: u32,
}

impl<'a> SupermerBlockWriter<'a> {
    /// Start a supermer block for `task` holding exactly `count` supermers.
    pub fn new(out: &'a mut Vec<u8>, task: u32, count: u32) -> Self {
        let block_start = out.len();
        push_u32(out, task);
        out.push(KIND_SUPERMERS);
        push_u32(out, count);
        SupermerBlockWriter {
            out,
            block_start,
            declared: count,
            written: 0,
        }
    }

    /// Append one supermer: its header plus the packed bases `offset..offset + len`
    /// of `seq` (the *source read*, not a materialised supermer sequence).
    pub fn push(&mut self, read_id: u32, start: u32, seq: &DnaSeq, offset: usize, len: usize) {
        debug_assert!(self.written < self.declared, "more supermers than declared");
        push_u32(self.out, read_id);
        push_u32(self.out, start);
        push_u32(self.out, len as u32);
        seq.append_packed_range(offset, len, self.out);
        self.written += 1;
    }
}

impl Drop for SupermerBlockWriter<'_> {
    fn drop(&mut self) {
        // Skip sealing during unwinding: asserting or hashing here would turn any
        // panic raised mid-block into a panic-while-panicking abort that masks it,
        // and the half-written buffer is discarded anyway.
        if !std::thread::panicking() {
            debug_assert_eq!(
                self.written, self.declared,
                "supermer block closed with a count mismatch"
            );
            seal_block(self.out, self.block_start);
        }
    }
}

// =======================================================================================
// Zero-copy parsing
// =======================================================================================

/// A parsed task block borrowing the receive buffer.
#[derive(Debug, Clone)]
pub struct TaskBlockView<'a, K: KmerCode> {
    /// Task this block belongs to.
    pub task: u32,
    /// The payload view.
    pub payload: PayloadView<'a, K>,
}

/// Borrowed payload of one task block.
#[derive(Debug, Clone)]
pub enum PayloadView<'a, K: KmerCode> {
    /// Supermers (normal tasks).
    Supermers(SupermersView<'a>),
    /// Pre-aggregated `(canonical k-mer, count)` tuples (heavy-hitter tasks).
    KmerList(KmerListView<'a, K>),
    /// Individual canonical k-mers with optional extension records (ablation path).
    Records(RecordsView<'a, K>),
}

/// Borrowed view of a supermer block body.
#[derive(Debug, Clone, Copy)]
pub struct SupermersView<'a> {
    count: usize,
    bytes: &'a [u8],
}

impl<'a> SupermersView<'a> {
    /// Number of supermers in the block.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no supermers.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate over the supermers without copying their packed bases.
    pub fn iter(&self) -> SupermerIter<'a> {
        SupermerIter {
            remaining: self.count,
            bytes: self.bytes,
        }
    }

    /// Exact number of k-mers this block will decode to, computed from the supermer
    /// headers alone (the packed bases are skipped, not decoded). The sort & count
    /// stage uses this to build its per-task block index and preallocate the record
    /// array to exactly the right size before decoding.
    pub fn total_kmers(&self, k: usize) -> usize {
        self.iter().map(|sm| sm.num_kmers(k)).sum()
    }
}

/// Iterator over [`SupermerView`]s in a supermer block.
#[derive(Debug, Clone)]
pub struct SupermerIter<'a> {
    remaining: usize,
    bytes: &'a [u8],
}

impl<'a> Iterator for SupermerIter<'a> {
    type Item = SupermerView<'a>;

    fn next(&mut self) -> Option<SupermerView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut pos = 0usize;
        // Lengths were validated by `read_blocks`; the expects document that contract.
        let read_id = read_u32(self.bytes, &mut pos).expect("validated by read_blocks");
        let start = read_u32(self.bytes, &mut pos).expect("validated by read_blocks");
        let len = read_u32(self.bytes, &mut pos).expect("validated by read_blocks") as usize;
        let nbytes = len.div_ceil(4);
        let packed = &self.bytes[pos..pos + nbytes];
        self.bytes = &self.bytes[pos + nbytes..];
        Some(SupermerView {
            read_id,
            start,
            len,
            packed,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// One supermer, borrowing its 2-bit packed bases from the receive buffer.
#[derive(Debug, Clone, Copy)]
pub struct SupermerView<'a> {
    /// Id of the read the supermer was cut from.
    pub read_id: u32,
    /// Offset of the first base within the read.
    pub start: u32,
    /// Number of bases.
    pub len: usize,
    packed: &'a [u8],
}

impl SupermerView<'_> {
    /// The 2-bit code of base `i`.
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        (self.packed[i / 4] >> (2 * (i % 4))) & 0b11
    }

    /// Number of k-mers this supermer contains for a given k.
    pub fn num_kmers(&self, k: usize) -> usize {
        if self.len >= k {
            self.len - k + 1
        } else {
            0
        }
    }

    /// Visit every canonical k-mer with its absolute position in the read, decoding the
    /// rolling window straight from the packed bytes — no intermediate `DnaSeq` or
    /// supermer materialisation. Both strands roll ([`KmerCode::push_base`] /
    /// [`KmerCode::push_base_rc`]), so the canonical form is an O(1) `min(fwd, rc)`
    /// per position instead of an O(k) reverse-complement rebuild.
    pub fn for_each_canonical_kmer<K: KmerCode>(&self, k: usize, mut f: impl FnMut(K, u32)) {
        let mut fwd = K::zero();
        let mut rc = K::zero();
        for i in 0..self.len {
            let code = self.code_at(i);
            fwd = fwd.push_base(k, code);
            rc = rc.push_base_rc(k, code);
            if i + 1 >= k {
                let canon = if rc < fwd { rc } else { fwd };
                f(canon, self.start + (i + 1 - k) as u32);
            }
        }
    }

    /// Materialise an owned [`Supermer`] (compat path for tests and tooling).
    pub fn to_supermer(&self, target: u32) -> Supermer {
        let mut seq = DnaSeq::with_capacity(self.len);
        for i in 0..self.len {
            seq.push_code(self.code_at(i));
        }
        Supermer {
            read_id: self.read_id,
            start: self.start,
            seq,
            target,
        }
    }
}

/// Borrowed view of a kmerlist block body.
#[derive(Debug, Clone, Copy)]
pub struct KmerListView<'a, K: KmerCode> {
    count: usize,
    bytes: &'a [u8],
    _kmer: PhantomData<K>,
}

impl<'a, K: KmerCode> KmerListView<'a, K> {
    /// Number of `(k-mer, count)` entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decode the `(k-mer, count)` entries on the fly.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, u64)> + 'a {
        let bytes = self.bytes;
        let stride = kmer_wire_bytes::<K>() + 8;
        (0..self.count).map(move |i| {
            let mut pos = i * stride;
            let km = read_kmer::<K>(bytes, &mut pos).expect("validated by read_blocks");
            let count = read_u64(bytes, &mut pos).expect("validated by read_blocks");
            (km, count)
        })
    }
}

/// Borrowed view of a records block body.
#[derive(Debug, Clone, Copy)]
pub struct RecordsView<'a, K: KmerCode> {
    count: usize,
    kmer_bytes: &'a [u8],
    extensions: ExtensionsView<'a>,
    /// Absolute byte offset of the extension section, for error reporting.
    ext_offset: usize,
    _kmer: PhantomData<K>,
}

/// Borrowed extension section of a records block.
#[derive(Debug, Clone, Copy)]
pub enum ExtensionsView<'a> {
    /// No extension information on the wire.
    None,
    /// Fixed-width records.
    Raw(&'a [u8]),
    /// Delta-compressed stream (§3.3.2).
    Compressed(&'a [u8]),
}

impl<'a, K: KmerCode> RecordsView<'a, K> {
    /// Number of k-mer records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decode the k-mers on the fly.
    pub fn kmers(&self) -> impl ExactSizeIterator<Item = K> + 'a {
        let bytes = self.kmer_bytes;
        let stride = kmer_wire_bytes::<K>();
        (0..self.count).map(move |i| {
            let mut pos = i * stride;
            read_kmer::<K>(bytes, &mut pos).expect("validated by read_blocks")
        })
    }

    /// Decode the extension records, if the block carries any.
    ///
    /// Returns [`WireError::BadExtension`] when the compressed stream is malformed
    /// (structure was length-checked by [`read_blocks`], but delta decoding can still
    /// fail), otherwise `None` for extension-free blocks or `Some(records)`.
    pub fn decode_extensions(&self) -> Result<Option<Vec<Extension>>, WireError> {
        match self.extensions {
            ExtensionsView::None => Ok(None),
            ExtensionsView::Raw(bytes) => {
                let exts = bytes
                    .chunks_exact(Extension::WIRE_BYTES)
                    .map(|raw| Extension::from_bytes(raw.try_into().expect("chunk is 8 bytes")))
                    .collect();
                Ok(Some(exts))
            }
            ExtensionsView::Compressed(bytes) => decode_extensions_slice(bytes, self.count)
                .map(Some)
                .ok_or(WireError::BadExtension {
                    offset: self.ext_offset,
                }),
        }
    }
}

impl<'a, K: KmerCode> TaskBlockView<'a, K> {
    /// Materialise an owned [`TaskBlock`] (compat path for tests and tooling; the
    /// pipeline consumes the views directly).
    pub fn to_owned_block(&self) -> Result<TaskBlock<K>, WireError> {
        let payload = match &self.payload {
            PayloadView::Supermers(view) => {
                TaskPayload::Supermers(view.iter().map(|s| s.to_supermer(self.task)).collect())
            }
            PayloadView::KmerList(view) => TaskPayload::KmerList(view.iter().collect()),
            PayloadView::Records(view) => {
                TaskPayload::Records(view.kmers().collect(), view.decode_extensions()?)
            }
        };
        Ok(TaskBlock {
            task: self.task,
            payload,
        })
    }
}

/// Parse a byte stream into task block views. Returns a [`WireError`] naming the
/// defect and its byte offset on malformed input — never panics, whatever the bytes.
///
/// One walk validates every length field and verifies each block's trailing checksum;
/// the returned views borrow `buf`, so parsing performs **zero payload copies** —
/// payload items are decoded lazily by the view iterators exactly where the pipeline
/// consumes them.
pub fn read_blocks<K: KmerCode>(buf: &[u8]) -> Result<Vec<TaskBlockView<'_, K>>, WireError> {
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < buf.len() {
        let block_start = pos;
        let task = read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
        let kind = *buf.get(pos).ok_or(WireError::Truncated { offset: pos })?;
        let kind_at = pos;
        pos += 1;
        let payload = match kind {
            KIND_SUPERMERS => {
                let n =
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })? as usize;
                let body_start = pos;
                for _ in 0..n {
                    // read_id, start
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
                    let len_at = pos;
                    let len = read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?
                        as usize;
                    let nbytes = len.div_ceil(4);
                    let end = pos
                        .checked_add(nbytes)
                        .ok_or(WireError::Oversized { offset: len_at })?;
                    buf.get(pos..end)
                        .ok_or(WireError::Truncated { offset: pos })?;
                    pos = end;
                }
                PayloadView::Supermers(SupermersView {
                    count: n,
                    bytes: &buf[body_start..pos],
                })
            }
            KIND_KMERLIST => {
                let len_at = pos;
                let n =
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })? as usize;
                let body = n
                    .checked_mul(kmer_wire_bytes::<K>() + 8)
                    .and_then(|b| pos.checked_add(b))
                    .ok_or(WireError::Oversized { offset: len_at })?;
                let bytes = buf
                    .get(pos..body)
                    .ok_or(WireError::Truncated { offset: pos })?;
                pos = body;
                PayloadView::KmerList(KmerListView {
                    count: n,
                    bytes,
                    _kmer: PhantomData,
                })
            }
            KIND_RECORDS => {
                let len_at = pos;
                let n =
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })? as usize;
                let kmer_end = n
                    .checked_mul(kmer_wire_bytes::<K>())
                    .and_then(|b| pos.checked_add(b))
                    .ok_or(WireError::Oversized { offset: len_at })?;
                let kmer_bytes = buf
                    .get(pos..kmer_end)
                    .ok_or(WireError::Truncated { offset: pos })?;
                pos = kmer_end;
                let ext_offset = pos;
                let ext_kind = *buf.get(pos).ok_or(WireError::Truncated { offset: pos })?;
                pos += 1;
                let extensions = match ext_kind {
                    EXT_NONE => ExtensionsView::None,
                    EXT_RAW => {
                        let body = n
                            .checked_mul(Extension::WIRE_BYTES)
                            .and_then(|b| pos.checked_add(b))
                            .ok_or(WireError::Oversized { offset: len_at })?;
                        let bytes = buf
                            .get(pos..body)
                            .ok_or(WireError::Truncated { offset: pos })?;
                        pos = body;
                        ExtensionsView::Raw(bytes)
                    }
                    EXT_COMPRESSED => {
                        let blen = read_u32(buf, &mut pos)
                            .ok_or(WireError::Truncated { offset: pos })?
                            as usize;
                        let end = pos
                            .checked_add(blen)
                            .ok_or(WireError::Oversized { offset: ext_offset })?;
                        let bytes = buf
                            .get(pos..end)
                            .ok_or(WireError::Truncated { offset: pos })?;
                        pos = end;
                        ExtensionsView::Compressed(bytes)
                    }
                    _ => {
                        return Err(WireError::BadExtension { offset: ext_offset });
                    }
                };
                PayloadView::Records(RecordsView {
                    count: n,
                    kmer_bytes,
                    extensions,
                    ext_offset,
                    _kmer: PhantomData,
                })
            }
            _ => {
                return Err(WireError::BadKind {
                    kind,
                    offset: kind_at,
                });
            }
        };
        let body_end = pos;
        let declared = read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
        if checksum32(&buf[block_start..body_end]) != declared {
            return Err(WireError::Checksum {
                task,
                offset: block_start,
            });
        }
        out.push(TaskBlockView { task, payload });
    }
    Ok(out)
}

/// Parse a byte stream into owned task blocks (tests and tooling; the pipeline uses
/// [`read_blocks`] views directly). Returns a [`WireError`] on malformed input.
pub fn read_blocks_owned<K: KmerCode>(buf: &[u8]) -> Result<Vec<TaskBlock<K>>, WireError> {
    read_blocks::<K>(buf)?
        .iter()
        .map(TaskBlockView::to_owned_block)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use hysortk_dna::readset::Read;
    use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
    use hysortk_supermer::supermer::build_supermers;

    #[test]
    fn checksum_values_are_pinned() {
        // Every sealed task block and checkpoint manifest carries these folds, so a
        // changed value would change their bytes. The input's 35 bytes exercise the
        // zero-padded tail word.
        let bytes = b"HySortK checksum pin: ACGTACGTACGTA";
        assert_eq!(checksum64(bytes), 0x3fe5_30e2_c1d9_c601);
        assert_eq!(checksum32(bytes), 0xfe3c_f6e3);
        assert_eq!(checksum32(b""), 0xe17d_05ac);
    }

    #[test]
    fn count_lists_keep_their_layout_and_reject_malformed_lengths() {
        let kmer = Kmer2::from_ascii(b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTA");
        let list = vec![(kmer, 7u64), (Kmer2::zero(), u64::MAX)];
        let mut bytes = Vec::new();
        encode_counts(&list, &mut bytes);
        // A `u64` length, then each entry's packed words and its count.
        let mut want = 2u64.to_le_bytes().to_vec();
        for (kmer, count) in &list {
            for w in kmer.word_slice() {
                want.extend_from_slice(&w.to_le_bytes());
            }
            want.extend_from_slice(&count.to_le_bytes());
        }
        assert_eq!(bytes, want);

        bytes.push(0xAA);
        let mut input = &bytes[..];
        assert_eq!(decode_counts::<Kmer2>(&mut input), Some(list));
        assert_eq!(input, [0xAA], "decoding stops after the list");

        for cut in 0..bytes.len() - 1 {
            assert_eq!(
                decode_counts::<Kmer2>(&mut &bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
        for len in [3, u64::MAX / 24 + 1, u64::MAX] {
            let mut lying = bytes.clone();
            lying[..8].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                decode_counts::<Kmer2>(&mut &lying[..]),
                None,
                "length {len}"
            );
        }
    }

    #[test]
    fn supermer_blocks_round_trip() {
        let read = Read::from_ascii(
            7,
            "r7",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCG",
        );
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 1 });
        let supermers = build_supermers(&read, 15, &scorer, 8);
        assert!(!supermers.is_empty());
        let mut buf = Vec::new();
        write_block::<Kmer1>(&mut buf, 3, &TaskPayload::Supermers(supermers.clone()));
        let blocks = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].task, 3);
        match &blocks[0].payload {
            TaskPayload::Supermers(parsed) => {
                assert_eq!(parsed.len(), supermers.len());
                for (a, b) in parsed.iter().zip(&supermers) {
                    assert_eq!(a.read_id, b.read_id);
                    assert_eq!(a.start, b.start);
                    assert_eq!(a.seq, b.seq);
                }
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn supermer_views_decode_kmers_without_materialising() {
        let read = Read::from_ascii(2, "r2", b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGG");
        let k = 15;
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 5 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        let mut buf = Vec::new();
        write_block::<Kmer1>(&mut buf, 0, &TaskPayload::Supermers(supermers.clone()));

        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        let PayloadView::Supermers(view) = &blocks[0].payload else {
            panic!("wrong payload")
        };
        assert_eq!(view.len(), supermers.len());
        let mut streamed: Vec<(Kmer1, u32)> = Vec::new();
        for sm in view.iter() {
            sm.for_each_canonical_kmer::<Kmer1>(k, |km, pos| streamed.push((km, pos)));
        }
        let direct: Vec<(Kmer1, u32)> = supermers
            .iter()
            .flat_map(|s| s.canonical_kmers_with_pos::<Kmer1>(k))
            .collect();
        assert_eq!(streamed, direct);
    }

    #[test]
    fn streamed_writer_is_byte_identical_to_owned_write_block() {
        // The direct send path (references into the read + word-level range copy) must
        // put exactly the same bytes on the wire as materialising `Supermer`s first.
        let read = Read::from_ascii(
            9,
            "r9",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCGAATTCCGG",
        );
        let k = 15;
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 3 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        assert!(!supermers.is_empty());

        let mut owned = Vec::new();
        write_block::<Kmer1>(&mut owned, 5, &TaskPayload::Supermers(supermers.clone()));

        let mut streamed = Vec::new();
        let mut writer = SupermerBlockWriter::new(&mut streamed, 5, supermers.len() as u32);
        for s in &supermers {
            // The direct path copies straight out of the source read at the supermer's
            // offset instead of out of a materialised supermer sequence.
            writer.push(s.read_id, s.start, &read.seq, s.start as usize, s.seq.len());
        }
        drop(writer);
        assert_eq!(streamed, owned);
    }

    #[test]
    fn total_kmers_matches_decoded_kmer_count() {
        let read = Read::from_ascii(
            4,
            "r4",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCG",
        );
        let k = 13;
        let scorer = MmerScorer::new(5, ScoreFunction::Hash { seed: 2 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        let mut buf = Vec::new();
        write_block::<Kmer1>(&mut buf, 0, &TaskPayload::Supermers(supermers));
        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        let PayloadView::Supermers(view) = &blocks[0].payload else {
            panic!("wrong payload")
        };
        let mut decoded = 0usize;
        for sm in view.iter() {
            sm.for_each_canonical_kmer::<Kmer1>(k, |_, _| decoded += 1);
        }
        assert!(decoded > 0);
        assert_eq!(view.total_kmers(k), decoded);
    }

    #[test]
    fn kmerlist_blocks_round_trip_for_both_widths() {
        let mut buf = Vec::new();
        let list1: Vec<(Kmer1, u64)> = vec![
            (Kmer1::from_ascii(b"ACGTACGTACGTACG"), 42),
            (Kmer1::from_ascii(b"TTTTTTTTTTTTTTT"), 7),
        ];
        write_block(&mut buf, 11, &TaskPayload::KmerList(list1.clone()));
        let blocks = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks[0].payload, TaskPayload::KmerList(list1));

        let mut buf2 = Vec::new();
        let long: Vec<u8> = (0..55).map(|i| b"ACGT"[i % 4]).collect();
        let list2: Vec<(Kmer2, u64)> = vec![(Kmer2::from_ascii(&long), 3)];
        write_block(&mut buf2, 0, &TaskPayload::KmerList(list2.clone()));
        let blocks2 = read_blocks_owned::<Kmer2>(&buf2).unwrap();
        assert_eq!(blocks2[0].payload, TaskPayload::KmerList(list2));
    }

    #[test]
    fn record_blocks_round_trip_with_and_without_extensions() {
        let kmers: Vec<Kmer1> = (0..100u32)
            .map(|i| {
                let s: Vec<u8> = (0..21)
                    .map(|j| b"ACGT"[((i + j as u32) % 4) as usize])
                    .collect();
                Kmer1::from_ascii(&s)
            })
            .collect();
        let exts: Vec<Extension> = (0..100u32).map(|i| Extension::new(5, i * 3)).collect();

        let mut plain = Vec::new();
        write_block(&mut plain, 2, &TaskPayload::Records(kmers.clone(), None));
        let blocks = read_blocks_owned::<Kmer1>(&plain).unwrap();
        assert_eq!(blocks[0].payload, TaskPayload::Records(kmers.clone(), None));

        let mut with_ext = Vec::new();
        write_block(
            &mut with_ext,
            2,
            &TaskPayload::Records(kmers.clone(), Some(exts.clone())),
        );
        let blocks = read_blocks_owned::<Kmer1>(&with_ext).unwrap();
        assert_eq!(
            blocks[0].payload,
            TaskPayload::Records(kmers.clone(), Some(exts.clone()))
        );

        // Compression must actually shrink the stream relative to the raw encoding.
        let mut raw = Vec::new();
        write_records_uncompressed(&mut raw, 2, &kmers, &exts);
        assert!(with_ext.len() < raw.len());
        let raw_blocks = read_blocks_owned::<Kmer1>(&raw).unwrap();
        assert_eq!(
            raw_blocks[0].payload,
            TaskPayload::Records(kmers, Some(exts))
        );
    }

    #[test]
    fn multiple_blocks_in_one_stream() {
        let mut buf = Vec::new();
        let list: Vec<(Kmer1, u64)> = vec![(Kmer1::from_ascii(b"ACGTT"), 1)];
        write_block(&mut buf, 1, &TaskPayload::KmerList(list.clone()));
        write_block(
            &mut buf,
            2,
            &TaskPayload::Records(vec![Kmer1::from_ascii(b"GGGAA")], None),
        );
        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].task, 1);
        assert_eq!(blocks[1].task, 2);
    }

    #[test]
    fn malformed_streams_are_rejected_with_typed_errors() {
        let mut buf = Vec::new();
        write_block(
            &mut buf,
            1,
            &TaskPayload::KmerList(vec![(Kmer1::from_ascii(b"ACGTT"), 1)]),
        );
        buf.pop();
        assert!(matches!(
            read_blocks::<Kmer1>(&buf),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            read_blocks::<Kmer1>(&[9, 9, 9]),
            Err(WireError::Truncated { offset: 0 })
        ));
        // Unknown block kind.
        assert_eq!(
            read_blocks::<Kmer1>(&[0, 0, 0, 0, 99]).unwrap_err(),
            WireError::BadKind {
                kind: 99,
                offset: 4
            }
        );
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut buf = Vec::new();
        write_block(
            &mut buf,
            7,
            &TaskPayload::KmerList(vec![(Kmer1::from_ascii(b"ACGTACGTACGTACG"), 42)]),
        );
        // Flip one payload bit, well past the header so the structure still parses.
        buf[12] ^= 0x10;
        assert_eq!(
            read_blocks::<Kmer1>(&buf).unwrap_err(),
            WireError::Checksum { task: 7, offset: 0 }
        );
    }

    #[test]
    fn empty_stream_parses_to_no_blocks() {
        assert!(read_blocks::<Kmer1>(&[]).unwrap().is_empty());
        assert!(read_blocks_owned::<Kmer1>(&[]).unwrap().is_empty());
    }

    /// Satellite regression: `read_blocks` must never panic and never return wrong
    /// records, whatever the bytes. Truncations at non-block boundaries and single-bit
    /// flips must surface as typed errors; a truncation at an exact block boundary is a
    /// shorter valid stream and must parse to exactly its prefix blocks.
    #[test]
    fn fuzzed_prefixes_and_bitflips_are_rejected_not_misparsed() {
        let read = Read::from_ascii(
            1,
            "fz",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCG",
        );
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 9 });
        let supermers = build_supermers(&read, 15, &scorer, 8);
        let kmers: Vec<Kmer1> = (0..40u32)
            .map(|i| {
                let s: Vec<u8> = (0..21)
                    .map(|j| b"ACGT"[((i * 7 + j as u32) % 4) as usize])
                    .collect();
                Kmer1::from_ascii(&s)
            })
            .collect();
        let exts: Vec<Extension> = (0..40u32).map(|i| Extension::new(3, i)).collect();

        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        write_block::<Kmer1>(&mut buf, 0, &TaskPayload::Supermers(supermers));
        boundaries.push(buf.len());
        write_block(
            &mut buf,
            1,
            &TaskPayload::KmerList(vec![(Kmer1::from_ascii(b"ACGTACGTACGTACG"), 5)]),
        );
        boundaries.push(buf.len());
        write_block(&mut buf, 2, &TaskPayload::Records(kmers, Some(exts)));
        boundaries.push(buf.len());
        let full = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(full.len(), 3);

        // Every prefix: parses to exactly its boundary blocks, or errors — no panics,
        // no invented records.
        for cut in 0..buf.len() {
            // A typed rejection is the expected outcome for almost every cut.
            if let Ok(blocks) = read_blocks_owned::<Kmer1>(&buf[..cut]) {
                let boundary = boundaries.iter().position(|&b| b == cut);
                let n = boundary.unwrap_or_else(|| {
                    panic!("prefix of {cut} bytes parsed but is not a block boundary")
                });
                assert_eq!(blocks, full[..n], "prefix of {cut} bytes decoded wrongly");
            }
        }

        // Every single-bit flip lands inside some block, so the checksum (or a
        // structural check) must catch it.
        let mut rng = 0x5eed_f00d_u64;
        for _ in 0..600 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let bit = (rng as usize) % (buf.len() * 8);
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_blocks_owned::<Kmer1>(&flipped).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
    }
}
