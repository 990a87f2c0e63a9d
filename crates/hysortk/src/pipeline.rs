//! The HySortK counting pipeline.
//!
//! One call to [`count_kmers`] runs the full three-stage algorithm of the paper on a
//! simulated cluster:
//!
//! 1. **Parse** — every rank reads its share of the input, finds minimizers with the
//!    monotone-deque sliding window and groups consecutive k-mers into supermers
//!    addressed to one of `s` tasks (`s ≫ p` when the task layer is on).
//! 2. **Exchange** — task sizes are reduced across ranks, tasks are assigned to ranks
//!    with the greedy Partition heuristic, heavy-hitter tasks are converted to
//!    pre-counted kmerlists, and the per-destination byte streams are exchanged with the
//!    round-limited padded all-to-all.
//! 3. **Sort & count** — one cheap header pass builds a per-task block index over the
//!    receive buffer, then the worker pool decodes each task straight from the borrowed
//!    wire bytes into an exactly preallocated record array, radix-sorts it (choosing
//!    the in-place or out-of-place sorter by modeled memory pressure) and counts it
//!    with a streaming run merge, filtered to the `[min_count, max_count]` band (see
//!    [`crate::stage3`]).
//!
//! All data movement happens through the simulated cluster, so the traffic and work
//! counters in the returned [`RunReport`] are measurements, not estimates; only the
//! conversion to seconds goes through the performance model.

use std::time::Instant;

use hysortk_dmem::{CommStats, RankCtx, Wire};
use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::{Read, ReadSet};
use hysortk_hash::hash_kmer;
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{PerfModel, SortAlgorithm, StageTimes};
use hysortk_sort::{count_sorted_runs, paradis_sort_from};
use hysortk_supermer::mmer::MmerScorer;
use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
use hysortk_task::{
    assign_greedy, detect_heavy_tasks, schedule_lpt, Assignment, ScratchBank, WorkerPool,
};
use hysortk_trace as trace;

use crate::checkpoint::{run_fingerprint, sizes_hash, RoundCheckpointer};
use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::ingest::{run_count, ReadSource};
use crate::result::{CountResult, KmerHistogram, RunReport, StageWallTimes};
use crate::stage3::{self, CountParams};
use crate::wire::{
    self, write_block, write_records_uncompressed, SupermerBlockWriter, TaskPayload,
};

/// Measured wall-clock seconds of one rank, bucketed by pipeline stage. The
/// buckets are accumulated with plain `Instant` deltas at a handful of sites
/// per round — cheap enough to stay on unconditionally, independent of the
/// tracing flag — and aggregated across ranks into
/// [`StageWallTimes`] by [`merge_outputs`]. `total` spans the whole rank
/// closure; the un-bucketed residue becomes the `other` stage, so the stages
/// always sum to the rank's wall time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WallBuckets {
    pub(crate) ingest: f64,
    pub(crate) parse: f64,
    pub(crate) serialize: f64,
    pub(crate) exchange_wait: f64,
    pub(crate) count: f64,
    pub(crate) checkpoint: f64,
    pub(crate) merge: f64,
    pub(crate) total: f64,
}

impl WallBuckets {
    /// Stage names, in pipeline order, parallel to [`WallBuckets::to_stage_vec`].
    pub(crate) const NAMES: [&'static str; 8] = [
        "ingest",
        "parse",
        "serialize",
        "exchange-wait",
        "count",
        "checkpoint",
        "merge",
        "other",
    ];

    /// The per-stage seconds, with everything `total` covers but no named
    /// bucket caught as `other`.
    pub(crate) fn to_stage_vec(self) -> Vec<f64> {
        let named = self.ingest
            + self.parse
            + self.serialize
            + self.exchange_wait
            + self.count
            + self.checkpoint
            + self.merge;
        vec![
            self.ingest,
            self.parse,
            self.serialize,
            self.exchange_wait,
            self.count,
            self.checkpoint,
            self.merge,
            (self.total - named).max(0.0),
        ]
    }
}

/// Run `f`, adding its wall time to `bucket`.
pub(crate) fn timed<T>(bucket: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *bucket += start.elapsed().as_secs_f64();
    out
}

/// Work counters measured by one rank.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankCounters {
    pub(crate) bases_parsed: u64,
    pub(crate) kmers_parsed: u64,
    pub(crate) supermers_built: u64,
    heavy_local_sorted: u64,
    received_elements: u64,
    precounted_elements: u64,
    worker_makespan: u64,
    exchange_rounds: usize,
    assignment_imbalance: f64,
    heavy_tasks: usize,
    /// Bytes this rank serialized/counted while a round was in flight (overlapped
    /// mode only).
    overlap_hidden_bytes: u64,
    /// Bytes of the pipeline's fill and drain (round 0 serialize, last round count)
    /// that nothing could hide (overlapped mode only).
    overlap_exposed_bytes: u64,
    /// Transient input-read failures this rank retried through (file feed only).
    pub(crate) io_retries: u64,
    /// Checkpoint epochs this rank committed (zero without a checkpoint directory).
    epochs_committed: u64,
    /// Measured wall-clock seconds of this rank, bucketed by stage.
    pub(crate) wall: WallBuckets,
}

/// Per-rank result of the pipeline.
pub(crate) struct RankOutput<K: KmerCode> {
    counts: Vec<(K, u64)>,
    extensions: Option<Vec<Vec<Extension>>>,
    histogram: KmerHistogram,
    pub(crate) counters: RankCounters,
}

impl Wire for WallBuckets {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.to_stage_vec() {
            v.encode(out);
        }
        self.total.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut stages = [0f64; 8];
        for slot in &mut stages {
            *slot = f64::decode(input)?;
        }
        let [ingest, parse, serialize, exchange_wait, count, checkpoint, merge, _other] = stages;
        Some(WallBuckets {
            ingest,
            parse,
            serialize,
            exchange_wait,
            count,
            checkpoint,
            merge,
            total: f64::decode(input)?,
        })
    }
}

impl Wire for RankCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bases_parsed.encode(out);
        self.kmers_parsed.encode(out);
        self.supermers_built.encode(out);
        self.heavy_local_sorted.encode(out);
        self.received_elements.encode(out);
        self.precounted_elements.encode(out);
        self.worker_makespan.encode(out);
        self.exchange_rounds.encode(out);
        self.assignment_imbalance.encode(out);
        self.heavy_tasks.encode(out);
        self.overlap_hidden_bytes.encode(out);
        self.overlap_exposed_bytes.encode(out);
        self.io_retries.encode(out);
        self.epochs_committed.encode(out);
        self.wall.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(RankCounters {
            bases_parsed: u64::decode(input)?,
            kmers_parsed: u64::decode(input)?,
            supermers_built: u64::decode(input)?,
            heavy_local_sorted: u64::decode(input)?,
            received_elements: u64::decode(input)?,
            precounted_elements: u64::decode(input)?,
            worker_makespan: u64::decode(input)?,
            exchange_rounds: usize::decode(input)?,
            assignment_imbalance: f64::decode(input)?,
            heavy_tasks: usize::decode(input)?,
            overlap_hidden_bytes: u64::decode(input)?,
            overlap_exposed_bytes: u64::decode(input)?,
            io_retries: u64::decode(input)?,
            epochs_committed: u64::decode(input)?,
            wall: WallBuckets::decode(input)?,
        })
    }
}

/// Codec carrying a rank's entire output home from a forked rank process.
/// Counts travel in the crate's one count-list codec (`wire::encode_counts`),
/// extensions as their fixed 8-byte encoding — the same representations the
/// exchange wire format uses, so the process backend adds no new byte-level
/// invariants.
impl<K: KmerCode> Wire for RankOutput<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::encode_counts(&self.counts, out);
        match &self.extensions {
            None => false.encode(out),
            Some(per_kmer) => {
                true.encode(out);
                (per_kmer.len() as u64).encode(out);
                for exts in per_kmer {
                    (exts.len() as u64).encode(out);
                    for ext in exts {
                        out.extend_from_slice(&ext.to_bytes());
                    }
                }
            }
        }
        self.histogram.encode(out);
        self.counters.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let counts = wire::decode_counts(input)?;
        let extensions = if bool::decode(input)? {
            let kmers = u64::decode(input)? as usize;
            let mut per_kmer = Vec::with_capacity(kmers.min(input.len()));
            for _ in 0..kmers {
                let m = u64::decode(input)? as usize;
                let mut exts = Vec::with_capacity(m.min(input.len() / Extension::WIRE_BYTES));
                for _ in 0..m {
                    let bytes: &[u8; 8] = input.get(..8)?.try_into().ok()?;
                    exts.push(Extension::from_bytes(bytes));
                    *input = &input[8..];
                }
                per_kmer.push(exts);
            }
            Some(per_kmer)
        } else {
            None
        };
        Some(RankOutput {
            counts,
            extensions,
            histogram: KmerHistogram::decode(input)?,
            counters: RankCounters::decode(input)?,
        })
    }
}

/// Compact send-side reference to one supermer: the read it was cut from (an index
/// into the rank's read slice), its base offset and its length. The bases themselves
/// stay in the packed read until serialisation copies them word-at-a-time straight
/// into the flat send buffer — no intermediate `Supermer { DnaSeq }` is materialised
/// on the send side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmRef {
    /// Index of the source read within this rank's read slice.
    read: u32,
    /// First base of the supermer within the read.
    start: u32,
    /// Length in bases (always ≥ k).
    len: u32,
}

impl SmRef {
    fn num_kmers(&self, k: usize) -> u64 {
        (self.len as usize - k + 1) as u64
    }
}

/// Per-task supermer references staged by one chunk of the rank's reads, plus the
/// chunk's work counters. Chunks are contiguous read ranges in read order, so
/// concatenating chunk stagings per task reproduces the sequential supermer order.
pub(crate) struct ParsedChunk {
    per_task: Vec<Vec<SmRef>>,
    pub(crate) bases: u64,
    pub(crate) kmers: u64,
    pub(crate) supermers: u64,
}

/// What a rank accumulates locally before the exchange.
pub(crate) enum Stage1<K: KmerCode> {
    /// Supermer mode: per-chunk, per-task supermer references (parallel streaming parse).
    Supermers(Vec<ParsedChunk>),
    /// Ablation mode: per-task individual k-mer records.
    Records(Vec<(Vec<K>, Vec<Extension>)>),
}

/// The send-side serializer both execution modes share: it owns the stage-1 staging and
/// writes **one task's** wire blocks into a flat buffer on demand, so the per-task
/// bytes of the bulk-synchronous path and the non-blocking round engine are identical
/// by construction (which is what makes their outputs byte-identical). Supermer tasks
/// stream word-level packed ranges straight out of the source reads; heavy-hitter
/// tasks pre-count into a kmerlist at serialisation time (§3.5); record tasks take
/// their staged vectors. Each task must be serialised at most once.
pub(crate) struct SendSerializer<'a, K: KmerCode> {
    stage1: Stage1<K>,
    my_reads: &'a [Read],
    local_sizes: &'a [u64],
    heavy: &'a [usize],
    with_extension: bool,
    compress_extension: bool,
    k: usize,
    first_radix_level: usize,
    /// K-mers pre-counted locally for heavy tasks (accumulated across tasks).
    pub(crate) heavy_local_sorted: u64,
}

impl<K: KmerCode> SendSerializer<'_, K> {
    /// Append task `t`'s wire blocks to `out` (nothing is written for an empty task).
    pub(crate) fn serialize_task(&mut self, t: usize, out: &mut Vec<u8>) {
        let k = self.k;
        let first_radix_level = self.first_radix_level;
        let with_extension = self.with_extension;
        let compress_extension = self.compress_extension;
        let SendSerializer {
            stage1,
            my_reads,
            local_sizes,
            heavy,
            heavy_local_sorted,
            ..
        } = self;
        match stage1 {
            Stage1::Supermers(chunks) => {
                let count: usize = chunks.iter().map(|c| c.per_task[t].len()).sum();
                if count == 0 {
                    return;
                }
                if heavy.binary_search(&t).is_ok() {
                    // Heavy-hitter path: pre-count locally, ship a kmerlist (§3.5).
                    // Canonical k-mers decode straight from the packed source reads,
                    // rolling both strands (O(1) canonical per position).
                    let mut kmers: Vec<K> = Vec::with_capacity(local_sizes[t] as usize);
                    for chunk in chunks.iter() {
                        for r in &chunk.per_task[t] {
                            let seq = &my_reads[r.read as usize].seq;
                            let mut fwd = K::zero();
                            let mut rc = K::zero();
                            for i in 0..r.len as usize {
                                // SAFETY: spans satisfy `start + len <= seq.len()`.
                                let code = unsafe { seq.get_code_unchecked(r.start as usize + i) };
                                fwd = fwd.push_base(k, code);
                                rc = rc.push_base_rc(k, code);
                                if i + 1 >= k {
                                    kmers.push(if rc < fwd { rc } else { fwd });
                                }
                            }
                        }
                    }
                    *heavy_local_sorted += kmers.len() as u64;
                    paradis_sort_from(&mut kmers, first_radix_level);
                    let list = count_sorted_runs(&kmers, |km| *km);
                    write_block(out, t as u32, &TaskPayload::<K>::KmerList(list));
                } else {
                    let mut writer = SupermerBlockWriter::new(out, t as u32, count as u32);
                    for chunk in chunks.iter() {
                        for r in &chunk.per_task[t] {
                            let read = &my_reads[r.read as usize];
                            writer.push(
                                read.id,
                                r.start,
                                &read.seq,
                                r.start as usize,
                                r.len as usize,
                            );
                        }
                    }
                }
            }
            Stage1::Records(tasks) => {
                let (kmers, exts) = std::mem::take(&mut tasks[t]);
                if kmers.is_empty() {
                    return;
                }
                if with_extension {
                    if compress_extension {
                        write_block(out, t as u32, &TaskPayload::Records(kmers, Some(exts)));
                    } else {
                        write_records_uncompressed(out, t as u32, &kmers, &exts);
                    }
                } else {
                    write_block(out, t as u32, &TaskPayload::Records(kmers, None));
                }
            }
        }
    }
}

/// Stage 1 in supermer mode: stream a slice of the rank's reads through the fused
/// extractor ([`for_each_supermer`]) in parallel on the cached worker pool. Reads are
/// split into contiguous chunks (a few per thread, for balance against uneven read
/// lengths); worker threads check one [`SupermerScratch`] ring each out of `bank`, so
/// repeated calls (the streaming feed path parses one ingested batch at a time)
/// reuse the scratches instead of re-allocating them per batch. Staged [`SmRef`]s
/// index reads as `base_index + position within the slice`, where `base_index` is the
/// number of the rank's reads parsed before this batch.
pub(crate) fn parse_supermers_parallel(
    my_reads: &[Read],
    base_index: u32,
    k: usize,
    scorer: &MmerScorer,
    num_tasks: usize,
    pool: &WorkerPool,
    bank: &ScratchBank<SupermerScratch>,
) -> Vec<ParsedChunk> {
    let chunk_count = (pool.total_threads() * 4).clamp(1, my_reads.len().max(1));
    let mut chunks: Vec<(u32, &[Read])> = Vec::with_capacity(chunk_count);
    let base = my_reads.len() / chunk_count;
    let extra = my_reads.len() % chunk_count;
    let mut start = 0usize;
    for c in 0..chunk_count {
        let len = base + usize::from(c < extra);
        chunks.push((base_index + start as u32, &my_reads[start..start + len]));
        start += len;
    }
    pool.execute_with_bank(
        chunks,
        bank,
        SupermerScratch::new,
        |scratch, (first_read, slice)| {
            let mut chunk = ParsedChunk {
                per_task: vec![Vec::new(); num_tasks],
                bases: 0,
                kmers: 0,
                supermers: 0,
            };
            for (offset, read) in slice.iter().enumerate() {
                chunk.bases += read.len() as u64;
                chunk.kmers += read.seq.num_kmers(k) as u64;
                let read_index = first_read + offset as u32;
                let per_task = &mut chunk.per_task;
                let supermers = &mut chunk.supermers;
                for_each_supermer(&read.seq, k, scorer, num_tasks as u32, scratch, |span| {
                    *supermers += 1;
                    per_task[span.target as usize].push(SmRef {
                        read: read_index,
                        start: span.start,
                        len: span.end - span.start,
                    });
                });
            }
            chunk
        },
    )
}

/// Count the canonical k-mers of `reads` with the full HySortK pipeline.
///
/// The k-mer width `K` must satisfy `cfg.k <= K::max_k()`; use
/// [`hysortk_dna::Kmer1`] for k ≤ 32 and [`hysortk_dna::Kmer2`] for k ≤ 64.
///
/// # Panics
///
/// On an invalid configuration or an oversized `k`. The run attaches no fault plan
/// and writes its own wire bytes, so injected faults, corrupted segments and peer
/// aborts cannot arise; checkpoint I/O against an unwritable directory is the one
/// failure left, and this API treats it as a caller error too.
pub fn count_kmers<K: KmerCode>(reads: &ReadSet, cfg: &HySortKConfig) -> CountResult<K> {
    run_count(ReadSource::Memory(reads), cfg, None)
        .unwrap_or_else(|e| panic!("in-memory k-mer count failed: {e}"))
}

/// Wire size of one k-mer record in the receive buffer (used for the memory projection
/// and the sort-cost byte width).
pub(crate) fn record_bytes<K: KmerCode>(cfg: &HySortKConfig) -> usize {
    K::WORDS * 8
        + if cfg.with_extension {
            Extension::WIRE_BYTES
        } else {
            0
        }
}

/// Stage 1 in records (naive-exchange ablation) mode for one read: canonicalise every
/// k-mer and stage it, with its provenance, on the task its hash addresses.
pub(crate) fn stage1_record_read<K: KmerCode>(
    read: &Read,
    k: usize,
    seed: u32,
    num_tasks: usize,
    tasks: &mut [(Vec<K>, Vec<Extension>)],
) {
    for (pos, km) in read.seq.kmers::<K>(k).enumerate() {
        let canon = km.canonical(k);
        let task = (hash_kmer(&canon, seed) % num_tasks as u64) as usize;
        let (kmers, exts) = &mut tasks[task];
        kmers.push(canon);
        exts.push(Extension::new(read.id, pos as u32));
    }
}

/// Stages 2 and 3 of the rank pipeline — task sizing, assignment, heavy-hitter
/// conversion, serialisation, exchange, sort & count, and the per-rank merge. The
/// rank driver ([`crate::ingest`]) runs them after stage 1 whichever read source fed
/// it, so in-memory and file-fed runs are identical by construction once stage 1 has
/// staged the same reads.
///
/// Fails with a typed [`HysortkError`] when a collective aborts (a peer failed, a
/// fault fired) or a received segment fails its wire checks; every local failure is
/// published cluster-wide before returning, so no peer is left blocked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stages_2_and_3<K: KmerCode>(
    ctx: &mut RankCtx,
    my_reads: &[Read],
    stage1: Stage1<K>,
    mut counters: RankCounters,
    cfg: &HySortKConfig,
    num_tasks: usize,
    sorter: SortAlgorithm,
    pool: &WorkerPool,
) -> Result<RankOutput<K>, HysortkError> {
    let p = ctx.size();
    let k = cfg.k;
    let workers = cfg.workers_per_process();

    // ---------------- task sizing, assignment, heavy hitters -------------------------
    let local_sizes: Vec<u64> = match &stage1 {
        Stage1::Supermers(chunks) => (0..num_tasks)
            .map(|t| {
                chunks
                    .iter()
                    .flat_map(|c| &c.per_task[t])
                    .map(|r| r.num_kmers(k))
                    .sum()
            })
            .collect(),
        Stage1::Records(tasks) => tasks.iter().map(|(kmers, _)| kmers.len() as u64).collect(),
    };
    // The "root retrieves data about the size of each task" step, realised as a
    // butterfly sum all-reduce so every rank computes the same assignment
    // deterministically at O(log p) vector transfers per rank.
    let global_sizes = timed(&mut counters.wall.exchange_wait, || {
        let _span = trace::span!("allreduce-task-sizes", trace::Detail::Stage, ctx.rank());
        ctx.allreduce_sum_u64(&local_sizes, "task-sizes")
    })?;

    let assignment = if cfg.use_task_layer {
        assign_greedy(&global_sizes, p)
    } else {
        identity_assignment(&global_sizes, p)
    };
    counters.assignment_imbalance = assignment.imbalance();

    // Heavy-hitter conversion ships pre-counted kmerlists, which carry no provenance:
    // converting with extensions requested would silently drop the extension lists of
    // every k-mer in a heavy task. The pipeline therefore bypasses the conversion
    // whenever `with_extension` is set (pinned by a regression test below).
    let heavy: Vec<usize> = if cfg.use_supermers && !cfg.with_extension {
        detect_heavy_tasks(&global_sizes, &cfg.heavy_hitter)
    } else {
        Vec::new()
    };
    counters.heavy_tasks = heavy.len();

    // ---------------- checkpointing -------------------------------------------------
    // The checkpointer opens after the task-size all-reduce: the fingerprint (config +
    // k-mer width + mode) and the sizes hash (input identity) are what restore
    // validates a manifest chain against. Restore triggers on `--resume` and on
    // recovery respawns (`generation > 0`); a fresh run just records the directory.
    let ckpt_open_start = Instant::now();
    let open_span = cfg
        .checkpoint_dir
        .is_some()
        .then(|| trace::span("checkpoint-open", trace::Detail::Stage, ctx.rank() as u32));
    let mut ckpt: Option<RoundCheckpointer<K>> = match &cfg.checkpoint_dir {
        Some(dir) => {
            let fingerprint = run_fingerprint::<K>(cfg, num_tasks);
            match RoundCheckpointer::open(dir, cfg, ctx, fingerprint, sizes_hash(&global_sizes)) {
                Ok(c) => Some(c),
                Err(e) => {
                    // Opening is local-only work before any further collective;
                    // publish so peers already heading into the exchange unblock.
                    ctx.abort(&e.to_string());
                    return Err(e);
                }
            }
        }
        None => None,
    };
    drop(open_span);
    if cfg.checkpoint_dir.is_some() {
        counters.wall.checkpoint += ckpt_open_start.elapsed().as_secs_f64();
    }

    // ---------------- stages 2 + 3: serialise, exchange, sort & count ----------------
    // Both execution modes serialise every task through the same [`SendSerializer`]
    // (destination-major wire blocks, no send-side supermer materialisation), so their
    // per-task bytes — and therefore their outputs — are identical by construction.
    // What differs is the schedule:
    //
    // * `cfg.overlap == true` (the paper's §3.3.1 mode) runs the **non-blocking round
    //   engine**: tasks are packed into batched rounds honouring `cfg.batch_size`, and
    //   while round *r* is in flight the rank serialises round *r+1* into a recycled
    //   back buffer and counts round *r−1*'s tasks on the worker pool (see
    //   [`crate::overlap`]).
    // * `cfg.overlap == false` is the bulk-synchronous ablation: serialise everything,
    //   run one blocking padded exchange, then count — each stage a barrier.
    let levels = K::num_bytes(k);
    // Leading key bytes above the meaningful 2k bits are constant zero; tell the MSD
    // sorter to skip straight past them.
    let first_radix_level = K::WORDS * 8 - levels;
    let mut ser = SendSerializer {
        stage1,
        my_reads,
        local_sizes: &local_sizes,
        heavy: &heavy,
        with_extension: cfg.with_extension,
        compress_extension: cfg.compress_extension,
        k,
        first_radix_level,
        heavy_local_sorted: 0,
    };
    let params =
        CountParams::for_kmer::<K>(k, sorter, cfg.min_count, cfg.max_count, cfg.with_extension);

    let (stage3_out, task_sizes, exchange_rounds) = if cfg.overlap {
        let run = crate::overlap::exchange_and_count::<K>(
            ctx,
            &mut ser,
            &assignment.tasks_of,
            &global_sizes,
            // The round budget is `batch_size` records per rank per destination
            // (global task sizes sum over ranks, hence × p), scaled by `data_scale`:
            // a scaled-down run is a miniature of the full-size one, so its round
            // *structure* must be the miniature of the full-size structure too —
            // otherwise the miniature collapses to one round and the measured overlap
            // fraction would be pure projection instead of measurement.
            ((cfg.batch_size as f64 * p as f64 * cfg.data_scale).ceil() as u64).max(1),
            k,
            &params,
            pool,
            ckpt.as_mut(),
            &mut counters.wall,
        )?;
        counters.overlap_hidden_bytes = run.hidden_bytes;
        counters.overlap_exposed_bytes = run.exposed_bytes;
        (run.out, run.task_sizes, run.rounds)
    } else if let Some(restored) = ckpt.as_mut().and_then(|c| c.take_complete_run()) {
        // The bulk path commits exactly one epoch covering its whole exchange, so a
        // restored state is complete: skip serialisation and the exchange entirely.
        // Restore is deterministic over the shared directory and the fingerprint pins
        // the execution mode, so every rank takes this branch together — the run
        // stays SPMD-uniform with no rank waiting in a collective.
        let restore_start = Instant::now();
        let _span = trace::span!("checkpoint-restore", trace::Detail::Stage, ctx.rank());
        let (tasks, task_sizes, decoded, rounds_total) = restored;
        if let Err(source) =
            stage3::verify_decoded_totals(&decoded, &assignment.tasks_of[ctx.rank()], &global_sizes)
        {
            let e = HysortkError::Wire {
                rank: ctx.rank(),
                round: 0,
                source,
            };
            ctx.abort(&e.to_string());
            return Err(e);
        }
        let (histogram, received_records, precounted_records) = ckpt
            .as_ref()
            .expect("restored from this checkpointer")
            .restored_base();
        let out = stage3::Stage3Output {
            tasks,
            histogram: histogram.clone(),
            received_records,
            precounted_records,
        };
        counters.wall.checkpoint += restore_start.elapsed().as_secs_f64();
        (out, task_sizes, rounds_total)
    } else {
        // One contiguous send buffer with per-destination counts (MPI `Alltoallv`
        // style): the assignment's task lists group each destination's blocks
        // contiguously.
        let serialize_start = Instant::now();
        let ser_span = trace::span!("stage2-serialize", trace::Detail::Stage, ctx.rank());
        let mut send: Vec<u8> = Vec::new();
        let mut send_counts = vec![0usize; p];
        for (dest, tasks) in assignment.tasks_of.iter().enumerate() {
            let dest_start = send.len();
            for &t in tasks {
                ser.serialize_task(t, &mut send);
            }
            send_counts[dest] = send.len() - dest_start;
        }
        drop(ser_span);
        counters.wall.serialize += serialize_start.elapsed().as_secs_f64();
        let batch_bytes = cfg.batch_size * K::num_bytes(k);
        let exchange = timed(&mut counters.wall.exchange_wait, || {
            let _span = trace::span_with(
                "stage2-exchange",
                trace::Detail::Stage,
                ctx.rank() as u32,
                &[("send_bytes", send.len() as u64)],
            );
            ctx.alltoall_rounds_flat(send, &send_counts, batch_bytes.max(1), "exchange")
        })?;

        // One cheap header pass over the flat receive buffer builds the per-task block
        // index with exact record totals; the worker pool then runs the fused
        // decode→sort→count per task straight from the borrowed wire bytes (see
        // `crate::stage3`).
        let count_start = Instant::now();
        let count_span = trace::span!("stage3-count", trace::Detail::Stage, ctx.rank());
        let index = match stage3::build_block_index::<K, _>(
            (0..p).map(|src| exchange.received.from_rank(src)),
            k,
        ) {
            Ok(index) => index,
            Err(source) => {
                let e = HysortkError::Wire {
                    rank: ctx.rank(),
                    round: 0,
                    source,
                };
                // Publish before returning so no peer stays blocked in a later
                // collective waiting for this rank.
                ctx.abort(&e.to_string());
                return Err(e);
            }
        };
        let task_sizes = index.task_sizes();
        // Per-block checksums cannot see a segment cut at an exact block boundary;
        // reconciling decoded totals against the allreduced sizes can.
        let mut decoded = std::collections::BTreeMap::new();
        index.accumulate_instances(&mut decoded);
        if let Err(source) =
            stage3::verify_decoded_totals(&decoded, &assignment.tasks_of[ctx.rank()], &global_sizes)
        {
            let e = HysortkError::Wire {
                rank: ctx.rank(),
                round: 0,
                source,
            };
            ctx.abort(&e.to_string());
            return Err(e);
        }
        let out = stage3::count_blocks_parallel(&index, k, &params, pool);
        drop(count_span);
        counters.wall.count += count_start.elapsed().as_secs_f64();
        // The bulk path has no intermediate round boundaries to persist at; it commits
        // one all-or-nothing epoch once everything is counted, so `--resume` (and an
        // in-run respawn) skips the exchange entirely instead of replaying part of it.
        if let Some(c) = ckpt.as_mut() {
            let commit_start = Instant::now();
            let _span = trace::span!("checkpoint-commit", trace::Detail::Stage, ctx.rank());
            let committed = c.set_rounds_total(exchange.rounds).and_then(|()| {
                c.commit_cumulative(
                    exchange.rounds - 1,
                    &out.tasks,
                    &task_sizes,
                    &decoded,
                    &out.histogram,
                    out.received_records,
                    out.precounted_records,
                )
            });
            if let Err(e) = committed {
                if !e.is_peer_echo() {
                    ctx.abort(&e.to_string());
                }
                return Err(e);
            }
            counters.wall.checkpoint += commit_start.elapsed().as_secs_f64();
        }
        (out, task_sizes, exchange.rounds)
    };
    counters.heavy_local_sorted = ser.heavy_local_sorted;
    counters.exchange_rounds = exchange_rounds;
    counters.epochs_committed = ckpt.as_ref().map_or(0, |c| c.epochs_committed as u64);
    counters.worker_makespan = schedule_lpt(&task_sizes, workers).makespan();
    counters.received_elements = stage3_out.received_records;
    counters.precounted_elements = stage3_out.precounted_records;

    // ---------------- merge the task outputs of this rank ----------------------------
    // Tasks hold disjoint k-mer sets, so the merge is an in-place sort of the
    // concatenated `(k-mer, count)` pairs; extension ranges move, nothing is cloned.
    let merged = timed(&mut counters.wall.merge, || {
        let _span = trace::span!("merge-tasks", trace::Detail::Stage, ctx.rank());
        stage3::merge_task_counts(stage3_out, &params)
    });

    Ok(RankOutput {
        counts: merged.counts,
        extensions: merged.extensions,
        histogram: merged.histogram,
        counters,
    })
}

/// The trivial assignment used when the task layer is disabled: task `t` → rank `t`.
fn identity_assignment(sizes: &[u64], ranks: usize) -> Assignment {
    assert_eq!(
        sizes.len(),
        ranks,
        "without the task layer there is one task per rank"
    );
    Assignment {
        rank_of: (0..ranks).collect(),
        tasks_of: (0..ranks).map(|r| vec![r]).collect(),
        load_of: sizes.to_vec(),
    }
}

/// Combine the per-rank outputs into the public result and build the report.
/// `recoveries` is how many times the cluster respawned failed ranks on the way to
/// these outputs (zero for a healthy or non-recovering run).
pub(crate) fn merge_outputs<K: KmerCode>(
    outputs: Vec<RankOutput<K>>,
    comm: Vec<CommStats>,
    cfg: &HySortKConfig,
    model: &PerfModel,
    sorter: SortAlgorithm,
    recoveries: usize,
) -> CountResult<K> {
    let scale = 1.0 / cfg.data_scale;

    // ---- merge counts (ranks hold disjoint canonical k-mers) ------------------------
    // Each rank's output is already sorted, so the global result is a k-way heap merge
    // that *moves* the pairs (and the per-k-mer extension lists) — no index
    // permutation, no per-entry clone, no re-sort.
    let mut histogram = KmerHistogram::new(cfg.max_count as usize + 2);
    let mut counters: Vec<RankCounters> = Vec::with_capacity(outputs.len());
    let (counts, extensions) = if cfg.with_extension {
        let mut rank_items: Vec<Vec<(K, u64, Vec<Extension>)>> = Vec::with_capacity(outputs.len());
        for out in outputs {
            let exts = out.extensions.unwrap_or_default();
            rank_items.push(
                out.counts
                    .into_iter()
                    .zip(exts)
                    .map(|((km, c), e)| (km, c, e))
                    .collect(),
            );
            histogram.merge(&out.histogram);
            counters.push(out.counters);
        }
        let items = hysortk_sort::kway_merge_by_key(rank_items, |&(km, ..)| km);
        let mut counts = Vec::with_capacity(items.len());
        let mut extensions = Vec::with_capacity(items.len());
        for (km, c, e) in items {
            counts.push((km, c));
            extensions.push(e);
        }
        (counts, Some(extensions))
    } else {
        let mut rank_counts: Vec<Vec<(K, u64)>> = Vec::with_capacity(outputs.len());
        for out in outputs {
            rank_counts.push(out.counts);
            histogram.merge(&out.histogram);
            counters.push(out.counters);
        }
        let counts = hysortk_sort::kway_merge_by_key(rank_counts, |&(km, _)| km);
        (counts, None)
    };

    // ---- projected work counters -----------------------------------------------------
    let max_bases = counters.iter().map(|c| c.bases_parsed).max().unwrap_or(0) as f64 * scale;
    let max_heavy_local = counters
        .iter()
        .map(|c| c.heavy_local_sorted)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let max_makespan = counters
        .iter()
        .map(|c| c.worker_makespan)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let max_received = counters
        .iter()
        .map(|c| c.received_elements + c.precounted_elements)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let total_kmers: u64 =
        (counters.iter().map(|c| c.kmers_parsed).sum::<u64>() as f64 * scale) as u64;
    let heavy_tasks = counters.first().map(|c| c.heavy_tasks).unwrap_or(0);
    let assignment_imbalance = counters
        .first()
        .map(|c| c.assignment_imbalance)
        .unwrap_or(1.0);
    let io_retries: u64 = counters.iter().map(|c| c.io_retries).sum();
    // Ranks commit in lockstep but a failure can interrupt some mid-epoch; the
    // most-advanced rank is the honest "how far did the run durably get" figure.
    let epochs_committed = counters
        .iter()
        .map(|c| c.epochs_committed)
        .max()
        .unwrap_or(0) as usize;

    // ---- exchange traffic --------------------------------------------------------------
    // Project payloads to full scale first, then recompute rounds and padding from the
    // projected figures (padding measured on scaled-down data is an artefact of the
    // fixed batch size and must not be scaled up).
    let p = cfg.total_ranks();
    let batch_bytes = (cfg.batch_size * K::num_bytes(cfg.k)) as u64;
    let exchange_payload =
        |s: &CommStats| s.stage("exchange").map(|st| st.payload_bytes).unwrap_or(0);
    let max_rank_payload =
        (comm.iter().map(&exchange_payload).max().unwrap_or(0) as f64 * scale) as u64;
    let total_payload = (comm.iter().map(exchange_payload).sum::<u64>() as f64 * scale) as u64;
    let max_pair_payload = comm
        .iter()
        .enumerate()
        .map(|(r, s)| {
            s.sent_to
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != r)
                .map(|(_, &b)| b)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    let max_pair_projected = (max_pair_payload as f64 * scale) as u64;
    let (max_rank_wire, rounds_projected) = hysortk_perfmodel::project_padded_exchange(
        max_rank_payload,
        max_pair_projected,
        batch_bytes,
        p.saturating_sub(1).max(1),
    );
    let total_wire = total_payload + (max_rank_wire - max_rank_payload) * p as u64;
    let off_node = comm
        .iter()
        .enumerate()
        .map(|(r, s)| s.off_node_fraction(r, cfg.processes_per_node))
        .fold(0.0f64, f64::max);

    // ---- modeled stage times -----------------------------------------------------------
    let compute = model.compute();
    let network = model.network();
    let bytes_per_record = record_bytes::<K>(cfg);

    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time(max_bases as u64));
    if max_heavy_local > 0.0 {
        stages.add(
            "local-count",
            compute.sort_time_makespan(
                (max_heavy_local as u64).div_ceil(cfg.workers_per_process() as u64),
                K::WORDS * 8,
                sorter,
            ),
        );
    }
    // Encode/decode work that the non-blocking exchange can hide (§3.3.1): moving the
    // wire bytes once more through memory on each side. The hidden share is no longer
    // a projection from the `overlap` flag — the round engine *measures* it: bytes
    // serialized/counted while a round was in flight vs the exposed fill-and-drain
    // bytes at the pipeline's ends. The bulk path hides nothing by construction. Like
    // padding, the exposed share measured on scaled-down data is an artefact of the
    // fixed batch size (it shrinks as 1/rounds), so it is re-projected through the
    // full-scale round count computed above.
    let codec_rate = model.machine.mem_bandwidth_per_node / cfg.processes_per_node as f64 / 4.0;
    let overlappable = max_rank_wire as f64 / codec_rate;
    let hidden: u64 = counters.iter().map(|c| c.overlap_hidden_bytes).sum();
    let exposed: u64 = counters.iter().map(|c| c.overlap_exposed_bytes).sum();
    let overlap_fraction = if cfg.overlap && hidden + exposed > 0 {
        let exposed_local = exposed as f64 / (hidden + exposed) as f64;
        let rounds_local = counters
            .iter()
            .map(|c| c.exchange_rounds)
            .max()
            .unwrap_or(1)
            .max(1);
        let exposed_projected =
            exposed_local * rounds_local as f64 / rounds_projected.max(1) as f64;
        (1.0 - exposed_projected).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let profile = ExchangeProfile {
        max_rank_wire_bytes: max_rank_wire,
        off_node_fraction: off_node,
        rounds: rounds_projected,
        overlappable_compute: overlappable,
        overlap_fraction,
    };
    stages.add("exchange", network.exchange_time(&profile));
    stages.add(
        "task-collectives",
        network.small_collective_time((cfg.num_tasks() * 8) as u64),
    );
    stages.add(
        "sort",
        compute.sort_time_makespan(max_makespan as u64, bytes_per_record, sorter),
    );
    stages.add("scan", compute.scan_time(max_received as u64));

    // ---- memory ------------------------------------------------------------------------
    let elements_per_node = (max_received as u64) * cfg.processes_per_node as u64;
    let aux_fraction = 1.0 / cfg.tasks_per_worker.max(1) as f64;
    // Every base is parsed by exactly one rank, so the counter sum is the input size
    // (the file feed has no `ReadSet` to ask).
    let total_bases: u64 = counters.iter().map(|c| c.bases_parsed).sum();
    let input_per_node = (total_bases as f64 / 4.0 * scale) as u64 / cfg.nodes.max(1) as u64;
    let peak = model.memory().sort_counter_peak(
        elements_per_node,
        bytes_per_record,
        sorter == SortAlgorithm::Raduls,
        aux_fraction,
    ) + input_per_node;

    // ---- measured wall-clock rollup ----------------------------------------------------
    // Unlike the modeled stage times above these are raw `Instant` deltas, never
    // projected through `data_scale`: they report the run that actually happened.
    let wall_buckets: Vec<Vec<f64>> = counters.iter().map(|c| c.wall.to_stage_vec()).collect();
    let stage_wall = StageWallTimes::from_rank_buckets(&WallBuckets::NAMES, &wall_buckets);

    let retained = counts.len() as u64;
    let report = RunReport {
        stage_times: stages,
        stage_wall,
        comm: CommStats::aggregate(&comm),
        peak_memory_per_node: peak,
        sorter,
        total_kmers,
        distinct_kmers: histogram.distinct(),
        retained_kmers: retained,
        heavy_tasks,
        max_rank_wire_bytes: max_rank_wire,
        total_wire_bytes: total_wire,
        exchange_rounds: rounds_projected,
        assignment_imbalance,
        overlap_fraction,
        io_retries,
        recoveries,
        epochs_committed,
        simd: hysortk_dna::simd::path_name(),
    };

    CountResult {
        counts,
        histogram,
        extensions,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_counts_bounded, reference_extensions};
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_reads(n: usize, len: usize, seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let seqs: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect())
            .collect();
        ReadSet::from_ascii_reads(&seqs)
    }

    /// Reads with duplicated regions so that multiplicities above 1 actually occur.
    fn overlapping_reads(seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..3_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let reads: Vec<Vec<u8>> = (0..120)
            .map(|_| {
                let start = rng.gen_range(0..genome.len() - 300);
                genome[start..start + 300].to_vec()
            })
            .collect();
        ReadSet::from_ascii_reads(&reads)
    }

    fn small_cfg(k: usize, m: usize, ranks: usize) -> HySortKConfig {
        let mut cfg = HySortKConfig::small(k, m, ranks);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        cfg
    }

    #[test]
    fn matches_reference_on_random_reads() {
        let reads = random_reads(60, 200, 1);
        let cfg = small_cfg(21, 9, 4);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&reads, 21, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn matches_reference_with_repeats_and_bounds() {
        let reads = overlapping_reads(2);
        let mut cfg = small_cfg(17, 8, 4);
        cfg.min_count = 2;
        cfg.max_count = 50;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&reads, 17, 2, 50);
        assert_eq!(result.counts, expected);
        assert!(result.report.total_kmers > 0);
    }

    #[test]
    fn two_word_kmers_work_for_large_k() {
        let reads = overlapping_reads(3);
        let cfg = small_cfg(41, 17, 3);
        let result = count_kmers::<Kmer2>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer2>(&reads, 41, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn extension_mode_returns_correct_provenance() {
        let reads = overlapping_reads(4);
        let mut cfg = small_cfg(19, 9, 4);
        cfg.with_extension = true;
        cfg.min_count = 2;
        cfg.max_count = 60;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_extensions::<Kmer1>(&reads, 19, 2, 60);
        assert_eq!(result.counts.len(), expected.len());
        let exts = result.extensions.as_ref().unwrap();
        for (i, (km, expected_exts)) in expected.iter().enumerate() {
            assert_eq!(&result.counts[i].0, km);
            assert_eq!(&exts[i], expected_exts, "extensions of kmer {i}");
        }
    }

    #[test]
    fn all_ablation_paths_agree_with_each_other() {
        let reads = overlapping_reads(5);
        let k = 21;
        let base = small_cfg(k, 9, 4);
        let expected = reference_counts_bounded::<Kmer1>(&reads, k, 1, 1_000_000);

        for (name, cfg) in [
            ("no-task-layer", {
                let mut c = base.clone();
                c.use_task_layer = false;
                c
            }),
            ("no-supermers", {
                let mut c = base.clone();
                c.use_supermers = false;
                c
            }),
            ("no-heavy-hitters", {
                let mut c = base.clone();
                c.heavy_hitter = hysortk_task::HeavyHitterPolicy::disabled();
                c
            }),
            ("no-overlap-no-compress", {
                let mut c = base.clone();
                c.overlap = false;
                c.compress_extension = false;
                c
            }),
            ("single-rank", {
                let mut c = base.clone();
                c.processes_per_node = 1;
                c
            }),
        ] {
            let result = count_kmers::<Kmer1>(&reads, &cfg);
            assert_eq!(result.counts, expected, "ablation {name}");
        }
    }

    #[test]
    fn heavy_hitter_path_triggers_on_satellite_repeats_and_stays_correct() {
        // Centromere-like (AATGG)n repeats: a huge number of identical k-mers that all
        // land in one task.
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..40 {
            seqs.push(b"AATGG".repeat(60));
        }
        // Plus some background reads.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            seqs.push((0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect());
        }
        let reads = ReadSet::from_ascii_reads(&seqs);
        let mut cfg = small_cfg(15, 7, 4);
        cfg.heavy_hitter = hysortk_task::HeavyHitterPolicy {
            factor: 2.0,
            enabled: true,
        };
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(
            result.report.heavy_tasks > 0,
            "expected at least one heavy task"
        );
        let expected = reference_counts_bounded::<Kmer1>(&reads, 15, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn heavy_conversion_is_bypassed_when_extensions_are_requested() {
        // Same satellite-repeat workload that triggers the heavy-hitter path — but with
        // extensions requested, the kmerlist conversion must be bypassed (kmerlists
        // carry no provenance, so converting would silently drop extension lists).
        // This test pins that behaviour: no heavy tasks, and full, correct extensions.
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..40 {
            seqs.push(b"AATGG".repeat(60));
        }
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            seqs.push((0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect());
        }
        let reads = ReadSet::from_ascii_reads(&seqs);
        let mut cfg = small_cfg(15, 7, 4);
        cfg.heavy_hitter = hysortk_task::HeavyHitterPolicy {
            factor: 2.0,
            enabled: true,
        };

        // Without extensions this workload does convert heavy tasks.
        let plain = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(plain.report.heavy_tasks > 0, "workload should be heavy");

        cfg.with_extension = true;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(
            result.report.heavy_tasks, 0,
            "heavy conversion must be bypassed with extensions on"
        );
        let expected = reference_extensions::<Kmer1>(&reads, 15, 1, 1_000_000);
        assert_eq!(result.counts.len(), expected.len());
        let exts = result.extensions.as_ref().unwrap();
        for (i, (km, expected_exts)) in expected.iter().enumerate() {
            assert_eq!(&result.counts[i].0, km);
            assert_eq!(&result.counts[i].1, &(expected_exts.len() as u64));
            assert_eq!(&exts[i], expected_exts, "extensions of kmer {i}");
        }
    }

    #[test]
    fn overlapped_runs_match_bulk_and_expose_round_engine_traffic() {
        let reads = overlapping_reads(11);
        let mut cfg = small_cfg(21, 9, 4);
        // A batch far below the per-task sizes forces many task-granular rounds.
        cfg.batch_size = 16;

        cfg.overlap = false;
        let bulk = count_kmers::<Kmer1>(&reads, &cfg);
        cfg.overlap = true;
        let overlapped = count_kmers::<Kmer1>(&reads, &cfg);

        assert_eq!(overlapped.counts, bulk.counts);
        assert_eq!(overlapped.histogram, bulk.histogram);

        let engine = overlapped.report.comm.stage("exchange").unwrap();
        let bulk_stage = bulk.report.comm.stage("exchange").unwrap();
        assert!(engine.rounds > 1, "tiny batches must split into rounds");
        assert!(engine.max_inflight_bytes > 0, "rounds must be posted ahead");
        assert_eq!(
            engine.payload_bytes, bulk_stage.payload_bytes,
            "round payloads must conserve the bulk payload"
        );
        assert_eq!(
            bulk_stage.max_inflight_bytes, 0,
            "bulk path never posts ahead"
        );
        assert_eq!(bulk.report.overlap_fraction, 0.0);
        assert!((0.0..=1.0).contains(&overlapped.report.overlap_fraction));
    }

    #[test]
    fn histogram_and_report_are_consistent() {
        let reads = overlapping_reads(7);
        let cfg = small_cfg(21, 9, 2);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(result.report.distinct_kmers, result.histogram.distinct());
        assert_eq!(result.report.retained_kmers, result.counts.len() as u64);
        assert!(result.report.total_time() > 0.0);
        assert!(result.report.total_wire_bytes > 0);
        assert!(result.report.peak_memory_per_node > 0);
    }

    #[test]
    fn data_scale_projects_counters_but_not_counts() {
        let reads = overlapping_reads(8);
        let mut cfg = small_cfg(21, 9, 2);
        let unscaled = count_kmers::<Kmer1>(&reads, &cfg);
        cfg.data_scale = 0.01;
        let scaled = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(unscaled.counts, scaled.counts);
        assert!(scaled.report.total_kmers > unscaled.report.total_kmers * 50);
        assert!(scaled.report.total_time() > unscaled.report.total_time());
    }

    #[test]
    fn empty_and_too_short_inputs_yield_empty_results() {
        let reads = ReadSet::from_ascii_reads(&[b"ACGT".as_slice()]);
        let cfg = small_cfg(21, 9, 2);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(result.is_empty());
        assert_eq!(result.report.distinct_kmers, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the chosen k-mer width")]
    fn oversized_k_for_width_panics() {
        let reads = random_reads(2, 100, 9);
        let cfg = small_cfg(40, 15, 2);
        count_kmers::<Kmer1>(&reads, &cfg);
    }
}
