//! Results and run reports.

use hysortk_dmem::{CommStats, Wire};
use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_perfmodel::{SortAlgorithm, StageTimes};

/// The histogram of k-mer multiplicities: `histogram[c]` is the number of distinct
/// canonical k-mers observed exactly `c` times (index 0 unused). Counts above the cap
/// are accumulated in the last bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerHistogram {
    buckets: Vec<u64>,
}

impl KmerHistogram {
    /// Create a histogram with `cap` buckets (counts ≥ cap land in the last bucket).
    /// The bucket count is clamped to 65 536 so that extreme `max_count` settings do not
    /// allocate absurd histograms.
    pub fn new(cap: usize) -> Self {
        KmerHistogram {
            buckets: vec![0; cap.clamp(2, 65_536)],
        }
    }

    /// Record one distinct k-mer with multiplicity `count`.
    pub fn record(&mut self, count: u64) {
        let idx = (count as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Number of distinct k-mers with multiplicity exactly `count` (or ≥ cap for the
    /// last bucket).
    pub fn get(&self, count: usize) -> u64 {
        self.buckets.get(count).copied().unwrap_or(0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &KmerHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &v) in other.buckets.iter().enumerate() {
            self.buckets[i] += v;
        }
    }

    /// Total distinct k-mers recorded.
    pub fn distinct(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw buckets.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Exact bucket-for-bucket codec (process-backend result transport).
impl Wire for KmerHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.buckets.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let buckets = Vec::<u64>::decode(input)?;
        if buckets.len() < 2 {
            return None;
        }
        Some(KmerHistogram { buckets })
    }
}

impl KmerHistogram {
    /// Render the histogram as TSV `multiplicity\tdistinct` lines (empty buckets
    /// skipped; the last bucket accumulates counts at or above the cap). This is the
    /// `hysortk count --out` file format, and what the CLI smoke test diffs against
    /// its checked-in golden file — deterministic for a given input regardless of
    /// rank count, overlap mode or sorter.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (count, &distinct) in self.buckets.iter().enumerate().skip(1) {
            if distinct > 0 {
                out.push_str(&format!("{count}\t{distinct}\n"));
            }
        }
        out
    }
}

/// Measured wall-clock seconds of one pipeline stage, aggregated over ranks.
/// Unlike the modeled [`StageTimes`], these are real `Instant` deltas from the
/// run that just happened; min vs max exposes stragglers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageWall {
    /// Stage name (`parse`, `serialize`, `exchange-wait`, `count`, …).
    pub name: &'static str,
    /// Fastest rank's seconds in this stage.
    pub min: f64,
    /// Mean seconds across ranks.
    pub mean: f64,
    /// Slowest rank's seconds in this stage (the straggler).
    pub max: f64,
}

/// The measured wall-clock rollup of a run: per-stage min/mean/max over
/// ranks. Stages partition each rank thread's wall time (the `other` bucket
/// absorbs everything not covered by a named stage), so
/// [`StageWallTimes::total_mean`] tracks the mean rank wall time and the sum
/// over stages accounts for the whole run, not just the instrumented parts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageWallTimes {
    /// Per-stage aggregates, in pipeline order.
    pub stages: Vec<StageWall>,
    /// Number of ranks aggregated.
    pub ranks: usize,
}

impl StageWallTimes {
    /// Aggregate per-rank stage buckets: `per_rank[r][s]` is rank `r`'s
    /// seconds in stage `names[s]`.
    pub fn from_rank_buckets(names: &[&'static str], per_rank: &[Vec<f64>]) -> Self {
        let ranks = per_rank.len();
        let stages = names
            .iter()
            .enumerate()
            .map(|(s, &name)| {
                let mut min = f64::INFINITY;
                let mut max = 0.0f64;
                let mut sum = 0.0f64;
                for rank in per_rank {
                    let v = rank.get(s).copied().unwrap_or(0.0);
                    min = min.min(v);
                    max = max.max(v);
                    sum += v;
                }
                StageWall {
                    name,
                    min: if ranks == 0 { 0.0 } else { min },
                    mean: if ranks == 0 { 0.0 } else { sum / ranks as f64 },
                    max,
                }
            })
            .collect();
        StageWallTimes { stages, ranks }
    }

    /// Look one stage up by name.
    pub fn get(&self, name: &str) -> Option<&StageWall> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of per-stage mean seconds — the mean rank wall time.
    pub fn total_mean(&self) -> f64 {
        self.stages.iter().map(|s| s.mean).sum()
    }

    /// Sum of per-stage straggler seconds (an upper bound on rank wall time).
    pub fn total_max(&self) -> f64 {
        self.stages.iter().map(|s| s.max).sum()
    }

    /// One-line `stage=mean(min..max)` rendering for the CLI summary.
    pub fn summary(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("{}={:.3}s({:.3}..{:.3})", s.name, s.mean, s.min, s.max))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Everything measured and modeled about one counting run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-stage modeled seconds (parse / exchange / sort / scan …).
    pub stage_times: StageTimes,
    /// Per-stage *measured* wall-clock seconds with per-rank min/mean/max
    /// (always collected; independent of the tracing flag).
    pub stage_wall: StageWallTimes,
    /// Aggregated communication statistics from the simulated cluster.
    pub comm: CommStats,
    /// Modeled peak memory per node, bytes.
    pub peak_memory_per_node: u64,
    /// Which local sorter the memory-aware selection picked.
    pub sorter: SortAlgorithm,
    /// Total k-mer instances processed (projected to full scale).
    pub total_kmers: u64,
    /// Distinct canonical k-mers observed.
    pub distinct_kmers: u64,
    /// Distinct k-mers within the `[min_count, max_count]` band.
    pub retained_kmers: u64,
    /// Number of tasks flagged as heavy hitters.
    pub heavy_tasks: usize,
    /// Wire bytes of the exchange stage sent by the most loaded rank (projected).
    pub max_rank_wire_bytes: u64,
    /// Total wire bytes of the exchange stage across all ranks (projected).
    pub total_wire_bytes: u64,
    /// Number of communication rounds of the main exchange.
    pub exchange_rounds: usize,
    /// Imbalance (max/mean) of the task → rank assignment.
    pub assignment_imbalance: f64,
    /// Measured fraction (0..=1) of the overlappable encode/decode work the run hid
    /// behind the exchange: bytes serialized/counted while a round was in flight over
    /// all bytes through the round loop, with the exposed fill-and-drain share
    /// projected to the full-scale round count. Zero for the bulk-synchronous path.
    pub overlap_fraction: f64,
    /// Transient input-read failures that were retried successfully, summed over all
    /// ranks. Zero for in-memory runs and healthy file feeds.
    pub io_retries: u64,
    /// In-run rank recoveries: how many times the cluster respawned failed ranks and
    /// re-entered the pipeline instead of aborting. Zero for a healthy run.
    pub recoveries: usize,
    /// Checkpoint epochs committed by the most-advanced rank. Zero when no
    /// checkpoint directory is configured.
    pub epochs_committed: usize,
    /// Which SIMD hot-path variant the run used (`"avx2"`, `"sse2"`, or `"scalar"`),
    /// as chosen by runtime CPU detection (overridable with `HYSORTK_NO_SIMD=1`).
    pub simd: &'static str,
}

impl RunReport {
    /// Total modeled runtime in seconds.
    pub fn total_time(&self) -> f64 {
        self.stage_times.total()
    }
}

/// The output of a counting run.
#[derive(Debug, Clone)]
pub struct CountResult<K: KmerCode> {
    /// `(canonical k-mer, count)` pairs within `[min_count, max_count]`, sorted by
    /// k-mer. Globally merged across ranks (each canonical k-mer appears exactly once).
    pub counts: Vec<(K, u64)>,
    /// Histogram over *all* distinct k-mers (not only the retained band).
    pub histogram: KmerHistogram,
    /// Extension (provenance) lists for the retained k-mers, parallel to `counts`, when
    /// the run was configured with `with_extension`.
    pub extensions: Option<Vec<Vec<Extension>>>,
    /// Measured and modeled run report.
    pub report: RunReport,
}

impl<K: KmerCode> CountResult<K> {
    /// Look up the count of a canonical k-mer (None if it was filtered out or absent).
    pub fn count_of(&self, kmer: &K) -> Option<u64> {
        self.counts
            .binary_search_by(|(k, _)| k.cmp(kmer))
            .ok()
            .map(|i| self.counts[i].1)
    }

    /// Number of retained distinct k-mers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_caps() {
        let mut h = KmerHistogram::new(10);
        h.record(1);
        h.record(1);
        h.record(5);
        h.record(500); // lands in the cap bucket
        assert_eq!(h.get(1), 2);
        assert_eq!(h.get(5), 1);
        assert_eq!(h.get(9), 1);
        assert_eq!(h.distinct(), 4);
    }

    #[test]
    fn stage_wall_aggregates_min_mean_max_per_stage() {
        let per_rank = vec![vec![1.0, 4.0], vec![3.0, 0.0], vec![2.0, 2.0]];
        let wall = StageWallTimes::from_rank_buckets(&["parse", "count"], &per_rank);
        assert_eq!(wall.ranks, 3);
        let parse = wall.get("parse").unwrap();
        assert_eq!((parse.min, parse.mean, parse.max), (1.0, 2.0, 3.0));
        let count = wall.get("count").unwrap();
        assert_eq!((count.min, count.mean, count.max), (0.0, 2.0, 4.0));
        assert!((wall.total_mean() - 4.0).abs() < 1e-12);
        assert!((wall.total_max() - 7.0).abs() < 1e-12);
        assert!(wall.get("absent").is_none());
        let line = wall.summary();
        assert!(line.contains("parse=2.000s(1.000..3.000)"), "{line}");
    }

    #[test]
    fn stage_wall_tolerates_short_rank_vectors() {
        // A rank that never reached a stage (e.g. died early) reports no
        // bucket for it; aggregation treats the missing entry as zero.
        let per_rank = vec![vec![1.0], vec![]];
        let wall = StageWallTimes::from_rank_buckets(&["parse", "count"], &per_rank);
        assert_eq!(wall.get("parse").unwrap().max, 1.0);
        assert_eq!(wall.get("count").unwrap().max, 0.0);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = KmerHistogram::new(5);
        a.record(1);
        let mut b = KmerHistogram::new(8);
        b.record(1);
        b.record(6);
        a.merge(&b);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(6), 1);
        assert_eq!(a.distinct(), 3);
    }
}
