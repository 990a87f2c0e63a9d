//! Round-granular checkpointing: epoch manifests, torn-write-safe commits, and
//! chain-validated restore.
//!
//! The overlapped pipeline's `wait_round` boundary is a natural epoch: the round plan
//! ([`crate::overlap::plan_rounds`]) derives from globally identical inputs, so every
//! rank agrees — without communication — on which tasks round *r* completed. After a
//! committed round, each rank persists an **epoch manifest** holding the counted task
//! partials of the rounds since the previous manifest (a delta, linked by
//! `prev_epoch`) plus a cumulative snapshot of its worker-scratch state (histogram,
//! decode counters, per-task decoded totals). The bulk-synchronous path writes a
//! single manifest covering its one exchange.
//!
//! # Format
//!
//! A manifest file is a small envelope around one `dmem::wire` value, the same
//! codec that carries every other value across a transport boundary:
//!
//! ```text
//! "HSKC" | version: u32 = 2 | K::WORDS: u64 | body: Manifest<K> | checksum: u32
//! ```
//!
//! The body holds the identity and link fields (fingerprint, rank, rank count,
//! epoch, `prev_epoch`, planned rounds, task-size hash), the cumulative scratch
//! snapshot and the delta of counted tasks, whose `(k-mer, count)` lists use the
//! crate's one count-list codec. The trailing checksum covers every preceding byte.
//! Unsealing checks length, checksum, magic, version and k-mer word width, then
//! requires the body to decode exactly, with nothing left over. A manifest of another
//! version, including one written by an older build, is unusable like a corrupt one:
//! restore falls back past it and never misreads it.
//!
//! # Durability
//!
//! Manifests are written torn-write-safe: the bytes go to a `.tmp` sibling, are
//! fsynced, and only then renamed onto the final `ckpt-e{epoch}-r{rank}.bin` name — a
//! crash mid-write leaves either the previous manifest set or a dangling `.tmp` that
//! restore ignores. The checksum trailer means a bit-flipped or truncated file is
//! detected at parse time.
//!
//! # Restore
//!
//! Recovery (an in-run generation respawn, or `hysortk count --resume`) scans the
//! directory for the **newest globally-consistent epoch**: the highest epoch whose
//! manifest — and every manifest on its `prev_epoch` chain — parses, checksums and
//! fingerprint-matches on *all* ranks. A corrupt or missing link invalidates
//! everything after it, falling back to the epoch before; the scan is pure local file
//! I/O over deterministic inputs, so every rank picks the same epoch without a
//! collective. The run fingerprint (k, m, seed, layout, mode flags, k-mer width …)
//! rejects manifests written by a different configuration loudly, and the stored hash
//! of the all-reduced task sizes rejects a changed input.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hysortk_dmem::wire::{self, Wire};
use hysortk_dmem::FaultPlan;
use hysortk_dmem::RankCtx;
use hysortk_dna::kmer::KmerCode;
use hysortk_task::ScratchBank;
use hysortk_trace as trace;

use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::result::KmerHistogram;
use crate::stage3::{CountScratch, TaskCounts};
use crate::wire::{checksum32, checksum64, decode_counts, encode_counts};

/// Leading magic of every manifest.
const MAGIC: &[u8; 4] = b"HSKC";
/// Envelope version; bumped on any layout change.
const VERSION: u32 = 2;
/// Envelope bytes around the body: magic, version, k-mer words, checksum.
const ENVELOPE_BYTES: usize = MAGIC.len() + 4 + 8 + 4;

/// Hash of the all-reduced global task sizes: a changed input (different files,
/// different shard contents) changes some task size and is rejected at restore time.
pub(crate) fn sizes_hash(global_sizes: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(global_sizes.len() * 8);
    for &s in global_sizes {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    checksum64(&bytes)
}

/// Fingerprint of everything that shapes the deterministic round structure and the
/// manifest payload: counting parameters, cluster layout, execution-mode flags and
/// the k-mer word width. Two runs with equal fingerprints and equal [`sizes_hash`]
/// plan identical rounds, so a manifest from one is resumable by the other.
pub(crate) fn run_fingerprint<K: KmerCode>(cfg: &HySortKConfig, num_tasks: usize) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    push(K::WORDS as u64);
    push(cfg.k as u64);
    push(cfg.m as u64);
    push(u64::from(cfg.seed));
    push(cfg.nodes as u64);
    push(cfg.processes_per_node as u64);
    push(cfg.threads_per_process as u64);
    push(cfg.threads_per_worker as u64);
    push(cfg.tasks_per_worker as u64);
    push(num_tasks as u64);
    push(cfg.batch_size as u64);
    push(cfg.min_count);
    push(cfg.max_count);
    push(u64::from(cfg.use_supermers));
    push(u64::from(cfg.use_task_layer));
    push(u64::from(cfg.overlap));
    push(u64::from(cfg.compress_extension));
    push(u64::from(cfg.heavy_hitter.enabled));
    push(cfg.heavy_hitter.factor.to_bits());
    push(cfg.data_scale.to_bits());
    checksum64(&bytes)
}

/// Final on-disk name of one rank's manifest for one epoch.
///
/// Public so tests (and operators) can locate, corrupt or delete specific manifests;
/// the in-flight temporary carries a `.tmp` suffix and is ignored by restore.
pub fn manifest_path(dir: &Path, epoch: usize, rank: usize) -> PathBuf {
    dir.join(format!("ckpt-e{epoch:06}-r{rank:04}.bin"))
}

/// Parse a manifest filename back into `(epoch, rank)`; `None` for temporaries and
/// foreign files.
fn parse_manifest_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("ckpt-e")?;
    let (epoch, rest) = rest.split_at_checked(6)?;
    let rest = rest.strip_prefix("-r")?;
    let (rank, rest) = rest.split_at_checked(4)?;
    if rest != ".bin" {
        return None;
    }
    Some((epoch.parse().ok()?, rank.parse().ok()?))
}

/// One epoch manifest. Commits borrow the driver's counted tasks; restore decodes
/// owned copies.
struct Manifest<'a, K: KmerCode> {
    fingerprint: u64,
    rank: usize,
    ranks: usize,
    epoch: usize,
    prev_epoch: Option<usize>,
    rounds_total: usize,
    sizes_hash: u64,
    // Cumulative scratch snapshot at this epoch.
    received_records: u64,
    precounted_records: u64,
    histogram: KmerHistogram,
    decoded: Vec<(u32, u64)>,
    // Delta since `prev_epoch`.
    task_sizes: Vec<u64>,
    tasks: Cow<'a, [TaskCounts<K>]>,
}

impl<K: KmerCode> Wire for Manifest<'_, K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fingerprint.encode(out);
        self.rank.encode(out);
        self.ranks.encode(out);
        self.epoch.encode(out);
        self.prev_epoch.encode(out);
        self.rounds_total.encode(out);
        self.sizes_hash.encode(out);
        self.received_records.encode(out);
        self.precounted_records.encode(out);
        self.histogram.encode(out);
        self.decoded.encode(out);
        self.task_sizes.encode(out);
        self.tasks.len().encode(out);
        for task in self.tasks.iter() {
            encode_counts(&task.counts, out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Manifest {
            fingerprint: u64::decode(input)?,
            rank: usize::decode(input)?,
            ranks: usize::decode(input)?,
            epoch: usize::decode(input)?,
            prev_epoch: Option::decode(input)?,
            rounds_total: usize::decode(input)?,
            sizes_hash: u64::decode(input)?,
            received_records: u64::decode(input)?,
            precounted_records: u64::decode(input)?,
            histogram: KmerHistogram::decode(input)?,
            decoded: Vec::decode(input)?,
            task_sizes: Vec::decode(input)?,
            tasks: Cow::Owned(
                (0..usize::decode(input)?)
                    .map(|_| decode_counts(input).map(|counts| TaskCounts { counts, ext: None }))
                    .collect::<Option<_>>()?,
            ),
        })
    }
}

/// Seal a manifest into its file bytes: the envelope header, the `dmem::wire` body
/// and the checksum trailer.
fn seal<K: KmerCode>(manifest: &Manifest<'_, K>) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    VERSION.encode(&mut out);
    K::WORDS.encode(&mut out);
    manifest.encode(&mut out);
    let checksum = checksum32(&out);
    checksum.encode(&mut out);
    out
}

/// Check a manifest file's envelope and decode its body. Every defect is an error
/// naming it; nothing is allocated beyond what the input bytes back.
fn unseal<K: KmerCode>(bytes: &[u8]) -> Result<Manifest<'static, K>, String> {
    if bytes.len() < ENVELOPE_BYTES {
        return Err("manifest shorter than its envelope".into());
    }
    let (sealed, trailer) = bytes.split_at(bytes.len() - 4);
    if wire::from_bytes::<u32>(trailer) != Some(checksum32(sealed)) {
        return Err("manifest checksum mismatch (torn write or bit corruption)".into());
    }
    let (magic, mut body) = sealed.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err("not a checkpoint manifest (bad magic)".into());
    }
    let version = u32::decode(&mut body).expect("the length check covers the header");
    if version != VERSION {
        return Err(format!("unsupported manifest version {version}"));
    }
    let words = usize::decode(&mut body).expect("the length check covers the header");
    if words != K::WORDS {
        return Err(format!(
            "manifest stores {words}-word k-mers, the run uses {}",
            K::WORDS
        ));
    }
    wire::from_bytes(body)
        .ok_or_else(|| "malformed manifest body (truncated, oversized or trailing bytes)".into())
}

/// Write one manifest torn-write-safe: temp file → fsync → rename. The configured
/// fault plan's `checkpoint` site fires *between* the fsync and the rename — the
/// exact window where a real crash leaves a complete-but-unpublished temporary — so
/// chaos schedules can pin the fallback behaviour.
fn atomic_write(
    dir: &Path,
    epoch: usize,
    rank: usize,
    fault: Option<&FaultPlan>,
    bytes: &[u8],
) -> Result<(), HysortkError> {
    let final_path = manifest_path(dir, epoch, rank);
    let tmp_path = final_path.with_extension("bin.tmp");
    let io_err = |path: &Path, source: std::io::Error| HysortkError::Io {
        path: path.display().to_string(),
        rank,
        source,
    };
    let mut file = fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
    file.write_all(bytes).map_err(|e| io_err(&tmp_path, e))?;
    file.sync_all().map_err(|e| io_err(&tmp_path, e))?;
    drop(file);
    if let Some(plan) = fault {
        // A matching `fail:R:checkpoint:EPOCH` fault is this rank's simulated death
        // mid-commit: surface it as our own failure so the caller publishes an abort.
        plan.fire_control(rank, "checkpoint", epoch)
            .map_err(HysortkError::Comm)?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))
}

/// Accumulators handed back to a round driver: counted task partials, per-task
/// record totals, decoded per-task instance totals, and the resume round cursor.
pub(crate) type SeedParts<K> = (Vec<TaskCounts<K>>, Vec<u64>, BTreeMap<u32, u64>, usize);

/// Everything restore hands the pipeline: the accumulators of the committed rounds
/// plus the cursor to resume the round loop from.
pub(crate) struct RestoredState<K: KmerCode> {
    /// First round the resumed loop must execute (`last committed epoch + 1`).
    pub next_round: usize,
    /// Round count of the original plan, to cross-check the resumed plan.
    pub rounds_total: usize,
    /// Hash of the all-reduced task sizes at write time.
    pub sizes_hash: u64,
    /// Counted tasks of the committed rounds, in commit order.
    pub tasks: Vec<TaskCounts<K>>,
    /// Per-task record totals of the committed rounds, in commit order.
    pub task_sizes: Vec<u64>,
    /// Decoded k-mer instances per task over the committed rounds.
    pub decoded: BTreeMap<u32, u64>,
    /// Cumulative multiplicity histogram at the restored epoch.
    pub histogram: KmerHistogram,
    /// Cumulative records decoded from supermer/record blocks.
    pub received_records: u64,
    /// Cumulative kmerlist entries decoded.
    pub precounted_records: u64,
}

/// Why a manifest chain cannot be restored.
enum ChainError {
    /// A manifest on the chain was written by a different run configuration.
    Foreign(String),
    /// A manifest on the chain is missing, corrupt, torn or badly linked.
    Unusable(String),
}

/// Load and fully validate the manifest chain of `rank` headed at `head`, returning
/// the manifests oldest-first. Any unseal failure, identity mismatch or broken link
/// is an error naming the defect.
fn load_chain<K: KmerCode>(
    dir: &Path,
    head: usize,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Vec<Manifest<'static, K>>, ChainError> {
    let mut chain = Vec::new();
    let mut next = Some(head);
    while let Some(epoch) = next {
        let path = manifest_path(dir, epoch, rank);
        let unusable =
            |e: &dyn std::fmt::Display| ChainError::Unusable(format!("{}: {e}", path.display()));
        let bytes = fs::read(&path).map_err(|e| unusable(&e))?;
        let m = unseal::<K>(&bytes).map_err(|e| unusable(&e))?;
        if m.fingerprint != fingerprint {
            return Err(ChainError::Foreign(format!(
                "{}: written by a different run configuration",
                path.display()
            )));
        }
        if m.rank != rank || m.ranks != ranks || m.epoch != epoch {
            return Err(unusable(&"identity fields disagree"));
        }
        if m.prev_epoch.is_some_and(|prev| prev >= epoch) {
            return Err(unusable(&"non-monotonic epoch chain"));
        }
        next = m.prev_epoch;
        chain.push(m);
    }
    chain.reverse();
    Ok(chain)
}

/// Find the newest globally-consistent epoch in `dir` and restore this rank's state
/// from it. `Ok(None)` means a clean start (no directory, no usable manifests);
/// `Err` is reserved for manifests that parse but belong to a different run — silent
/// fallback there would quietly recount the wrong thing.
pub(crate) fn restore<K: KmerCode>(
    dir: &Path,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Option<RestoredState<K>>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(None),
    };
    let mut epochs: Vec<usize> = Vec::new();
    for entry in entries.flatten() {
        if let Some((epoch, _)) = entry.file_name().to_str().and_then(parse_manifest_name) {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable();
    epochs.dedup();

    let mut foreign: Option<String> = None;
    'candidates: for &candidate in epochs.iter().rev() {
        let mut own = None;
        for r in 0..ranks {
            match load_chain::<K>(dir, candidate, r, ranks, fingerprint) {
                Ok(chain) if r == rank => own = Some(chain),
                Ok(_) => {}
                Err(ChainError::Foreign(e)) => {
                    foreign.get_or_insert(e);
                    continue 'candidates;
                }
                Err(ChainError::Unusable(e)) => {
                    trace::vlog!(rank, "checkpoint epoch {candidate} unusable: {e}");
                    continue 'candidates;
                }
            }
        }
        let chain = own.expect("this rank's chain is among the validated ones");
        let newest = chain.last().expect("validated chain is never empty");
        let next_round = newest.epoch + 1;
        let rounds_total = newest.rounds_total;
        let sizes_hash = newest.sizes_hash;
        let histogram = newest.histogram.clone();
        let received_records = newest.received_records;
        let precounted_records = newest.precounted_records;
        let decoded: BTreeMap<u32, u64> = newest.decoded.iter().copied().collect();
        let mut tasks = Vec::new();
        let mut task_sizes = Vec::new();
        for m in chain {
            tasks.extend(m.tasks.into_owned());
            task_sizes.extend(m.task_sizes);
        }
        return Ok(Some(RestoredState {
            next_round,
            rounds_total,
            sizes_hash,
            tasks,
            task_sizes,
            decoded,
            histogram,
            received_records,
            precounted_records,
        }));
    }
    match foreign {
        // No usable epoch, and at least one manifest belongs to another run: refuse
        // rather than silently starting over in a directory that was clearly meant
        // for something else.
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// The per-rank checkpoint driver: owns the directory, the commit cadence, the
/// restored seed and the delta marks, and writes one manifest per committed epoch.
pub(crate) struct RoundCheckpointer<K: KmerCode> {
    dir: PathBuf,
    every: usize,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
    sizes_hash: u64,
    fault: Option<Arc<FaultPlan>>,
    rounds_total: Option<usize>,
    restored_rounds_total: Option<usize>,
    prev_epoch: Option<usize>,
    /// How many entries of the accumulated `tasks` / `task_sizes` earlier epochs
    /// already cover (restored or committed) — the next manifest's delta starts here.
    tasks_mark: usize,
    sizes_mark: usize,
    /// Cumulative scratch state of the committed epochs this generation did not
    /// recount: the restored histogram and decode counters.
    base_histogram: KmerHistogram,
    base_received: u64,
    base_precounted: u64,
    seed: Option<RestoredSeed<K>>,
    /// Manifests committed by this generation (restored epochs not included).
    pub(crate) epochs_committed: usize,
}

/// The restored accumulators, handed to the round driver exactly once.
struct RestoredSeed<K: KmerCode> {
    tasks: Vec<TaskCounts<K>>,
    task_sizes: Vec<u64>,
    decoded: BTreeMap<u32, u64>,
    next_round: usize,
}

impl<K: KmerCode> RoundCheckpointer<K> {
    /// Open the checkpoint directory for this rank: create it, and — when the run is
    /// resuming (`--resume`) or this is a recovery respawn (`generation > 0`) —
    /// restore the newest globally-consistent epoch and verify it matches this run's
    /// input (`sizes_hash`).
    pub(crate) fn open(
        dir: &Path,
        cfg: &HySortKConfig,
        ctx: &RankCtx,
        fingerprint: u64,
        sizes_hash: u64,
    ) -> Result<Self, HysortkError> {
        let rank = ctx.rank();
        let ranks = ctx.size();
        fs::create_dir_all(dir).map_err(|source| HysortkError::Io {
            path: dir.display().to_string(),
            rank,
            source,
        })?;
        let mut ckpt = RoundCheckpointer {
            dir: dir.to_path_buf(),
            every: cfg.checkpoint_every,
            rank,
            ranks,
            fingerprint,
            sizes_hash,
            fault: ctx.fault_plan_arc(),
            rounds_total: None,
            restored_rounds_total: None,
            prev_epoch: None,
            tasks_mark: 0,
            sizes_mark: 0,
            base_histogram: KmerHistogram::new(cfg.max_count as usize + 2),
            base_received: 0,
            base_precounted: 0,
            seed: None,
            epochs_committed: 0,
        };
        if cfg.resume || ctx.generation() > 0 {
            let restored = restore::<K>(dir, rank, ranks, fingerprint)
                .map_err(|e| HysortkError::Config(format!("cannot resume: {e}")))?;
            if let Some(state) = restored {
                if state.sizes_hash != sizes_hash {
                    return Err(HysortkError::Config(
                        "cannot resume: the checkpointed task sizes do not match this \
                         input (the files changed since the checkpoint was written)"
                            .into(),
                    ));
                }
                ckpt.restored_rounds_total = Some(state.rounds_total);
                ckpt.prev_epoch = Some(state.next_round - 1);
                ckpt.tasks_mark = state.tasks.len();
                ckpt.sizes_mark = state.task_sizes.len();
                ckpt.base_histogram = state.histogram;
                ckpt.base_received = state.received_records;
                ckpt.base_precounted = state.precounted_records;
                trace::instant(
                    "checkpoint-restored",
                    trace::Detail::Stage,
                    rank as u32,
                    &[
                        ("next_round", state.next_round as u64),
                        ("rounds_total", state.rounds_total as u64),
                    ],
                );
                trace::vlog!(
                    rank,
                    "checkpoint restored: resuming at round {} of {}",
                    state.next_round,
                    state.rounds_total
                );
                ckpt.seed = Some(RestoredSeed {
                    tasks: state.tasks,
                    task_sizes: state.task_sizes,
                    decoded: state.decoded,
                    next_round: state.next_round,
                });
            }
        }
        Ok(ckpt)
    }

    /// Record the agreed round count of this exchange, cross-checking a restored
    /// state against the freshly planned rounds (equal fingerprints and sizes imply
    /// equal plans; a mismatch means the checkpoint belongs to a different run).
    pub(crate) fn set_rounds_total(&mut self, rounds: usize) -> Result<(), HysortkError> {
        if let Some(restored) = self.restored_rounds_total {
            if restored != rounds {
                return Err(HysortkError::Config(format!(
                    "cannot resume: the checkpoint was written by a {restored}-round \
                     plan, this run plans {rounds} rounds"
                )));
            }
        }
        self.rounds_total = Some(rounds);
        Ok(())
    }

    /// Hand the restored accumulators (tasks, sizes, decoded totals) and the resume
    /// cursor to the round driver. Empty state and round 0 on a fresh start.
    pub(crate) fn take_seed(&mut self) -> SeedParts<K> {
        match self.seed.take() {
            Some(seed) => (seed.tasks, seed.task_sizes, seed.decoded, seed.next_round),
            None => (Vec::new(), Vec::new(), BTreeMap::new(), 0),
        }
    }

    /// The bulk-synchronous path commits exactly one epoch covering its whole
    /// exchange, so a restored state is always complete: take it (with its recorded
    /// round count) and skip the exchange entirely. `None` on a fresh start.
    pub(crate) fn take_complete_run(&mut self) -> Option<SeedParts<K>> {
        let seed = self.seed.take()?;
        let rounds = self
            .restored_rounds_total
            .expect("a restored seed always records its round count");
        assert_eq!(
            seed.next_round, rounds,
            "bulk manifests cover the whole exchange"
        );
        self.rounds_total = Some(rounds);
        (seed.next_round == rounds).then_some((seed.tasks, seed.task_sizes, seed.decoded, rounds))
    }

    /// Whether round `round` is a commit boundary: every `checkpoint_every`-th round,
    /// and always the last round (so a completed run is completely durable).
    pub(crate) fn should_commit(&self, round: usize) -> bool {
        let rounds = self
            .rounds_total
            .expect("set_rounds_total precedes the round loop");
        (round + 1).is_multiple_of(self.every) || round + 1 == rounds
    }

    /// Restored cumulative scratch state this generation did not recount; the driver
    /// merges it into the assembled stage output.
    pub(crate) fn restored_base(&self) -> (&KmerHistogram, u64, u64) {
        (
            &self.base_histogram,
            self.base_received,
            self.base_precounted,
        )
    }

    /// Commit epoch `round` from the overlapped driver's accumulators: snapshot the
    /// cumulative scratch state out of the (idle) bank, write the delta since the
    /// previous epoch, and advance the marks.
    pub(crate) fn commit(
        &mut self,
        round: usize,
        tasks: &[TaskCounts<K>],
        task_sizes: &[u64],
        decoded: &BTreeMap<u32, u64>,
        bank: &ScratchBank<CountScratch<K>>,
    ) -> Result<(), HysortkError> {
        let mut histogram = self.base_histogram.clone();
        let mut received = self.base_received;
        let mut precounted = self.base_precounted;
        bank.for_each(|scratch| {
            histogram.merge(&scratch.histogram);
            received += scratch.received_records;
            precounted += scratch.precounted_records;
        });
        self.commit_cumulative(
            round, tasks, task_sizes, decoded, &histogram, received, precounted,
        )
    }

    /// Commit epoch `round` with explicitly provided cumulative scratch state (the
    /// bulk path's single end-of-exchange epoch).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_cumulative(
        &mut self,
        round: usize,
        tasks: &[TaskCounts<K>],
        task_sizes: &[u64],
        decoded: &BTreeMap<u32, u64>,
        histogram: &KmerHistogram,
        received_records: u64,
        precounted_records: u64,
    ) -> Result<(), HysortkError> {
        let rounds = self
            .rounds_total
            .expect("set_rounds_total precedes commits");
        let bytes = seal(&Manifest {
            fingerprint: self.fingerprint,
            rank: self.rank,
            ranks: self.ranks,
            epoch: round,
            prev_epoch: self.prev_epoch,
            rounds_total: rounds,
            sizes_hash: self.sizes_hash,
            received_records,
            precounted_records,
            histogram: histogram.clone(),
            decoded: decoded.iter().map(|(&task, &n)| (task, n)).collect(),
            task_sizes: task_sizes[self.sizes_mark..].to_vec(),
            tasks: Cow::Borrowed(&tasks[self.tasks_mark..]),
        });
        let manifest_bytes = bytes.len() as u64;
        atomic_write(&self.dir, round, self.rank, self.fault.as_deref(), &bytes)?;
        self.prev_epoch = Some(round);
        self.tasks_mark = tasks.len();
        self.sizes_mark = task_sizes.len();
        self.epochs_committed += 1;
        trace::instant(
            "checkpoint-epoch",
            trace::Detail::Stage,
            self.rank as u32,
            &[("round", round as u64), ("bytes", manifest_bytes)],
        );
        trace::vlog!(
            self.rank,
            "checkpoint epoch committed at round {round} ({manifest_bytes} manifest bytes)"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::kmer::Kmer1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hysortk_ckpt_{}_{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Largest single allocation request made on this thread while armed.
    struct PeakAlloc;

    thread_local! {
        static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn note_allocation(size: usize) {
        let _ = PEAK.try_with(|peak| {
            if let Some(max) = peak.get() {
                peak.set(Some(max.max(size)));
            }
        });
    }

    // SAFETY: each method (and each `unsafe` block in it) forwards its arguments
    // unchanged to `System`, so the caller's `GlobalAlloc` contract is exactly what
    // `System` requires. The bookkeeping touches only a thread-local `Cell`, which
    // never allocates.
    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note_allocation(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note_allocation(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note_allocation(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: PeakAlloc = PeakAlloc;

    /// Run `f` and return its result with the largest allocation it requested.
    fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
        PEAK.set(Some(0));
        let out = f();
        (out, PEAK.replace(None).expect("armed above"))
    }

    fn random_kmer(rng: &mut StdRng) -> Kmer1 {
        (0..21).fold(Kmer1::zero(), |km, _| km.push_base(21, rng.gen_range(0..4)))
    }

    /// A histogram of `cap` buckets holding one distinct k-mer per multiplicity.
    fn histogram_of(cap: usize, counts: impl IntoIterator<Item = u64>) -> KmerHistogram {
        let mut histogram = KmerHistogram::new(cap);
        counts.into_iter().for_each(|c| histogram.record(c));
        histogram
    }

    fn random_manifest(rng: &mut StdRng) -> Manifest<'static, Kmer1> {
        let rank = rng.gen_range(0..16);
        let epoch = rng.gen_range(0..1000);
        let decoded: BTreeMap<u32, u64> = (0..rng.gen_range(0..10))
            .map(|_| (rng.gen_range(0..100u32), rng.gen()))
            .collect();
        let tasks: Vec<TaskCounts<Kmer1>> = (0..rng.gen_range(0..6))
            .map(|_| TaskCounts {
                counts: (0..rng.gen_range(0..12))
                    .map(|_| (random_kmer(rng), rng.gen()))
                    .collect(),
                ext: None,
            })
            .collect();
        Manifest {
            fingerprint: rng.gen(),
            rank,
            ranks: rng.gen_range(rank + 1..20),
            epoch,
            prev_epoch: (epoch > 0 && rng.gen_bool(0.7)).then(|| rng.gen_range(0..epoch)),
            rounds_total: epoch + 1,
            sizes_hash: rng.gen(),
            received_records: rng.gen(),
            precounted_records: rng.gen(),
            histogram: histogram_of(
                rng.gen_range(2..20),
                (0..rng.gen_range(0..40)).map(|_| rng.gen_range(1..30)),
            ),
            decoded: decoded.into_iter().collect(),
            task_sizes: (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect(),
            tasks: Cow::Owned(tasks),
        }
    }

    fn assert_manifests_eq(got: &Manifest<'_, Kmer1>, want: &Manifest<'_, Kmer1>) {
        assert_eq!(got.fingerprint, want.fingerprint);
        assert_eq!(got.rank, want.rank);
        assert_eq!(got.ranks, want.ranks);
        assert_eq!(got.epoch, want.epoch);
        assert_eq!(got.prev_epoch, want.prev_epoch);
        assert_eq!(got.rounds_total, want.rounds_total);
        assert_eq!(got.sizes_hash, want.sizes_hash);
        assert_eq!(got.received_records, want.received_records);
        assert_eq!(got.precounted_records, want.precounted_records);
        assert_eq!(got.histogram, want.histogram);
        assert_eq!(got.decoded, want.decoded);
        assert_eq!(got.task_sizes, want.task_sizes);
        assert_eq!(got.tasks.len(), want.tasks.len());
        for (got, want) in got.tasks.iter().zip(want.tasks.iter()) {
            assert_eq!(got.counts, want.counts);
        }
    }

    #[test]
    fn manifest_round_trips_across_ranks_and_epochs() {
        // Property-style: many random manifests across ranks/epochs/link shapes must
        // decode back to exactly what was encoded.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for case in 0..40 {
            let want = random_manifest(&mut rng);
            let got = unseal::<Kmer1>(&seal(&want)).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_manifests_eq(&got, &want);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        let bytes = seal(&random_manifest(&mut rng));
        unseal::<Kmer1>(&bytes).unwrap();
        // Flip one bit in a spread of positions, including the checksum itself.
        for pos in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                unseal::<Kmer1>(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        // Truncation, including into the checksum trailer.
        for cut in [1, 4, bytes.len() / 2, bytes.len() - 2] {
            assert!(unseal::<Kmer1>(&bytes[..cut]).is_err());
        }
    }

    /// Wrap `body` in an envelope whose checksum is valid, whatever the body holds.
    fn reseal(version: u32, words: usize, body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        version.encode(&mut out);
        words.encode(&mut out);
        out.extend_from_slice(body);
        let checksum = checksum32(&out);
        checksum.encode(&mut out);
        out
    }

    /// Unseal `bytes`, which must be rejected, and check that no single allocation
    /// exceeded the input — apart from the rejection message itself.
    fn assert_rejected(bytes: &[u8], what: &str) -> String {
        let (result, peak) = peak_allocation(|| unseal::<Kmer1>(bytes).map(drop));
        let err = result.expect_err(what);
        assert!(
            peak <= bytes.len().max(err.len()),
            "{what}: a {}-byte input allocated {peak} bytes",
            bytes.len()
        );
        err
    }

    #[test]
    fn malformed_bodies_under_a_valid_checksum_are_rejected_without_overallocating() {
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let decoded: Vec<(u32, u64)> = (0..5).map(|t| (t, 100 + u64::from(t))).collect();
        let manifest = Manifest::<Kmer1> {
            fingerprint: 42,
            rank: 1,
            ranks: 2,
            epoch: 3,
            prev_epoch: Some(1),
            rounds_total: 4,
            sizes_hash: 99,
            received_records: 1000,
            precounted_records: 7,
            histogram: histogram_of(4, [1, 1, 2, 3, 9]),
            decoded,
            task_sizes: vec![300, 400, 300],
            tasks: Cow::Owned(
                [10, 0, 20]
                    .map(|n| TaskCounts {
                        counts: (0..n).map(|_| (random_kmer(&mut rng), rng.gen())).collect(),
                        ext: None,
                    })
                    .to_vec(),
            ),
        };
        let body = wire::to_bytes(&manifest);
        let (decoded, peak) = peak_allocation(|| unseal::<Kmer1>(&reseal(VERSION, 1, &body)));
        assert_manifests_eq(&decoded.unwrap(), &manifest);
        assert!(
            peak > 0,
            "the allocation probe must see the decode's allocations"
        );

        for cut in 0..body.len() {
            assert_rejected(&reseal(VERSION, 1, &body[..cut]), &format!("cut at {cut}"));
        }

        // Every length prefix of the body, claiming u64::MAX elements. Nine 8-byte
        // fields and the `Some` tag of `prev_epoch` precede the histogram.
        let histogram_at = 9 * 8 + 1;
        let decoded_at = histogram_at + 8 + 8 * 4;
        let sizes_at = decoded_at + 8 + 12 * 5;
        let tasks_at = sizes_at + 8 + 8 * 3;
        let first_counts_at = tasks_at + 8;
        for (at, len) in [
            (histogram_at, 4u64),
            (decoded_at, 5),
            (sizes_at, 3),
            (tasks_at, 3),
            (first_counts_at, 10),
        ] {
            assert_eq!(body[at..at + 8], len.to_le_bytes(), "length prefix at {at}");
            let mut bad = body.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_rejected(
                &reseal(VERSION, 1, &bad),
                &format!("u64::MAX length at {at}"),
            );
        }

        let err = assert_rejected(&reseal(VERSION, 2, &body), "two-word k-mers");
        assert!(err.contains("manifest stores 2-word k-mers"), "{err}");

        let mut trailing = body.clone();
        trailing.push(0);
        assert_rejected(&reseal(VERSION, 1, &trailing), "one trailing byte");
    }

    /// Write a small two-epoch chain for `ranks` ranks: epoch 0 (one task) and
    /// epoch `head` linking back to it.
    fn write_chain(dir: &Path, ranks: usize, fingerprint: u64, head: usize) {
        for rank in 0..ranks {
            let manifest = |epoch, prev_epoch, seen: u64, count: u64| Manifest::<Kmer1> {
                fingerprint,
                rank,
                ranks,
                epoch,
                prev_epoch,
                rounds_total: head + 1,
                sizes_hash: 99,
                received_records: 10 * seen,
                precounted_records: 0,
                histogram: histogram_of(2, [seen]),
                decoded: vec![(0, seen)],
                task_sizes: vec![seen],
                tasks: Cow::Owned(vec![TaskCounts {
                    counts: vec![(Kmer1::zero(), count + rank as u64)],
                    ext: None,
                }]),
            };
            atomic_write(dir, 0, rank, None, &seal(&manifest(0, None, 1, 5))).unwrap();
            atomic_write(
                dir,
                head,
                rank,
                None,
                &seal(&manifest(head, Some(0), 2, 100)),
            )
            .unwrap();
        }
    }

    #[test]
    fn restore_picks_the_newest_consistent_epoch_and_concatenates_deltas() {
        let dir = tmp_dir("restore");
        write_chain(&dir, 2, 42, 3);
        let state = restore::<Kmer1>(&dir, 1, 2, 42).unwrap().unwrap();
        assert_eq!(state.next_round, 4);
        assert_eq!(state.rounds_total, 4);
        assert_eq!(state.sizes_hash, 99);
        // Deltas concatenate oldest-first; cumulative fields come from the head.
        assert_eq!(state.task_sizes, vec![1, 2]);
        assert_eq!(state.tasks.len(), 2);
        assert_eq!(state.tasks[0].counts[0].1, 6);
        assert_eq!(state.tasks[1].counts[0].1, 101);
        assert_eq!(state.received_records, 20);
        assert_eq!(state.decoded, BTreeMap::from([(0u32, 2u64)]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tmp_files_are_ignored() {
        let dir = tmp_dir("torn");
        write_chain(&dir, 2, 42, 1);
        // A crash mid-commit of epoch 2 leaves only the fsynced temporary behind.
        fs::write(
            manifest_path(&dir, 2, 0).with_extension("bin.tmp"),
            b"half a manifest",
        )
        .unwrap();
        let state = restore::<Kmer1>(&dir, 0, 2, 42).unwrap().unwrap();
        assert_eq!(state.next_round, 2, "the torn epoch 2 must not be restored");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_corruption_falls_back_to_the_previous_consistent_epoch() {
        let dir = tmp_dir("corrupt");
        write_chain(&dir, 3, 42, 2);
        // Flip a byte in the *middle* of rank 1's newest manifest.
        let victim = manifest_path(&dir, 2, 1);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        // Every rank (not only the corrupted one) must agree on the fallback epoch.
        for rank in 0..3 {
            let state = restore::<Kmer1>(&dir, rank, 3, 42).unwrap().unwrap();
            assert_eq!(state.next_round, 1, "rank {rank} must fall back to epoch 0");
            assert_eq!(state.received_records, 10);
            assert_eq!(state.tasks.len(), 1);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupting_a_chain_link_invalidates_the_epochs_after_it() {
        let dir = tmp_dir("chainlink");
        write_chain(&dir, 2, 42, 1);
        // Corrupt epoch 0 (the link) on rank 0: epoch 1's chain is now broken on that
        // rank, so no epoch is globally consistent at all.
        let victim = manifest_path(&dir, 0, 0);
        let mut bytes = fs::read(&victim).unwrap();
        bytes[10] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        assert!(restore::<Kmer1>(&dir, 1, 2, 42).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_manifests_fall_back_to_a_fresh_start() {
        // A manifest from an older build has a valid checksum but the previous
        // envelope version: it is unusable, never misread, and restore recounts.
        let dir = tmp_dir("version1");
        write_chain(&dir, 2, 42, 1);
        for epoch in [0, 1] {
            for rank in 0..2 {
                let path = manifest_path(&dir, epoch, rank);
                let bytes = fs::read(&path).unwrap();
                let old = reseal(1, 1, &bytes[16..bytes.len() - 4]);
                let err = unseal::<Kmer1>(&old)
                    .err()
                    .expect("version 1 must not unseal");
                assert_eq!(err, "unsupported manifest version 1");
                fs::write(&path, old).unwrap();
            }
        }
        assert!(restore::<Kmer1>(&dir, 0, 2, 42).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_fingerprints_are_loud_not_silent() {
        let dir = tmp_dir("fingerprint");
        write_chain(&dir, 2, 42, 1);
        let err = match restore::<Kmer1>(&dir, 0, 2, 43) {
            Err(e) => e,
            Ok(_) => panic!("a foreign fingerprint must not restore"),
        };
        assert!(
            err.contains("different run configuration"),
            "unexpected error: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_directories_restore_nothing() {
        let dir = tmp_dir("empty");
        assert!(restore::<Kmer1>(&dir, 0, 2, 42).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
        assert!(restore::<Kmer1>(&dir, 0, 2, 42).unwrap().is_none());
    }

    #[test]
    fn fingerprint_separates_modes_and_parameters() {
        let base = HySortKConfig::small(21, 9, 4);
        let fp = run_fingerprint::<Kmer1>(&base, base.num_tasks());
        let mut overlap_off = base.clone();
        overlap_off.overlap = false;
        assert_ne!(
            fp,
            run_fingerprint::<Kmer1>(&overlap_off, overlap_off.num_tasks()),
            "execution mode must fingerprint"
        );
        let mut other_k = base.clone();
        other_k.k = 23;
        assert_ne!(fp, run_fingerprint::<Kmer1>(&other_k, other_k.num_tasks()));
        assert_eq!(fp, run_fingerprint::<Kmer1>(&base, base.num_tasks()));
    }

    #[test]
    fn manifest_names_round_trip_and_reject_foreign_files() {
        assert_eq!(parse_manifest_name("ckpt-e000012-r0003.bin"), Some((12, 3)));
        let p = manifest_path(Path::new("/tmp"), 12, 3);
        assert_eq!(
            parse_manifest_name(p.file_name().unwrap().to_str().unwrap()),
            Some((12, 3))
        );
        assert_eq!(parse_manifest_name("ckpt-e000012-r0003.bin.tmp"), None);
        assert_eq!(parse_manifest_name("ckpt-e1-r1.bin"), None);
        assert_eq!(parse_manifest_name("README.md"), None);
    }
}
