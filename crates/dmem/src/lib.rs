//! Distributed-memory runtime with pluggable rank backends.
//!
//! The paper runs HySortK with MPI across up to 64 Perlmutter nodes. This crate
//! substitutes a self-contained distributed-memory runtime: every rank has its own
//! private data, and the MPI collectives the pipelines need (`Alltoallv`, padded
//! `Alltoall` in rounds, `Allreduce`, `Allgather`, `Barrier`)
//! move real bytes between rank-private buffers through a crate-private `Transport`.
//! No data is shared behind the ranks' backs — a rank can only obtain another rank's
//! data through a collective, exactly as in MPI — so algorithmic behaviour (who sends
//! what to whom, how many rounds, how much padding) is preserved. Two backends exist
//! (select one with [`Cluster::with_backend`]):
//!
//! * [`Backend::Thread`] — every rank is an OS thread in this process, bytes move
//!   through a shared exchange board (the original simulator; supports arbitrary
//!   result types via [`Cluster::run`]).
//! * [`Backend::Process`] — every rank is a `fork()`ed OS process and bytes move
//!   over UNIX domain sockets, so transfer time is *real*; results cross the
//!   process boundary via the [`wire::Wire`] codec ([`Cluster::run_wire`]).
//!
//! Every collective records its traffic into [`stats::CommStats`] identically on
//! both backends, and the `hysortk-perfmodel` crate converts those measurements into
//! modeled seconds for the scaling experiments.
//!
//! Besides the blocking collectives there is the **non-blocking round engine**
//! ([`nonblocking::RoundExchange`], opened via
//! [`collectives::RankCtx::round_exchange`]): an `MPI_Ialltoallv`-style handle that
//! posts one round's flat send segments and immediately regains control, completing
//! rounds individually — the primitive the overlapped pipeline uses to hide
//! serialization and counting behind the exchange (paper §3.3.1).
//!
//! # Failure model
//!
//! Collectives return `Result<_, `[`DmemError`]`>`. When a rank fails — it panics, an
//! injected fault from a [`fault::FaultPlan`] fires, or pipeline code publishes a
//! local error via [`collectives::RankCtx::abort`] — a cluster-wide abort is raised
//! and every peer blocked in a barrier or a round wait returns
//! [`DmemError::PeerFailed`] naming the failing rank. On the process backend the
//! abort fans out over the sockets, and a rank that dies outright (its process exits
//! mid-run) is detected by its closed connections — a dead peer surfaces as
//! `PeerFailed`, never a hang. Deterministic fault schedules for chaos testing are
//! attached with [`Cluster::with_fault_plan`]; a cluster without a plan pays one
//! `Option` check per collective.
//!
//! # Example
//!
//! ```
//! use hysortk_dmem::Cluster;
//!
//! // Each rank r sends r copies of its id to every other rank.
//! let outcome = Cluster::new(4).run(|ctx| {
//!     let send: Vec<Vec<u64>> =
//!         (0..ctx.size()).map(|_| vec![ctx.rank() as u64; ctx.rank()]).collect();
//!     let recv = ctx.alltoallv(send, "demo").unwrap();
//!     recv.iter().map(|v| v.len()).sum::<usize>()
//! });
//! // Every rank receives 0 + 1 + 2 + 3 = 6 items.
//! assert_eq!(outcome.results, vec![6, 6, 6, 6]);
//! ```
//!
//! The hot exchange path uses the **flat-buffer** collectives instead: one contiguous
//! send buffer plus per-destination counts (MPI `Alltoallv` counts/displacements
//! style), so the wire stage allocates no nested per-destination vectors:
//!
//! ```
//! use hysortk_dmem::Cluster;
//!
//! let outcome = Cluster::new(3).run(|ctx| {
//!     // Segment for every destination: two bytes tagged with the sender's rank.
//!     let send: Vec<u8> = (0..ctx.size() * 2).map(|_| ctx.rank() as u8).collect();
//!     let counts = vec![2usize; ctx.size()];
//!     let recv = ctx.alltoallv_flat(send, &counts, "demo-flat").unwrap();
//!     (0..ctx.size()).map(|src| recv.from_rank(src).to_vec()).collect::<Vec<_>>()
//! });
//! // Rank 0 received [0, 0] from rank 0, [1, 1] from rank 1, [2, 2] from rank 2.
//! assert_eq!(outcome.results[0], vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
//! ```

pub mod collectives;
pub mod error;
pub mod fault;
mod inprocess;
pub mod nonblocking;
mod process;
pub mod stats;
pub mod transport;
pub mod wire;

pub use collectives::{FlatReceived, FlatRoundedExchange, RankCtx, RoundedExchange};
pub use error::DmemError;
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use nonblocking::RoundExchange;
pub use stats::{CommStats, StageTraffic};
pub use transport::Backend;
pub use wire::{Pod, Wire};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use inprocess::{InProcShared, InProcessTransport};
use transport::Transport;

/// A cluster of `p` ranks, each executed on its own OS thread or process
/// (see [`Backend`]).
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    ranks: usize,
    backend: Backend,
    fault: Option<Arc<FaultPlan>>,
}

/// The result of a cluster run: the per-rank return values plus the aggregated
/// communication statistics.
#[derive(Debug)]
pub struct ClusterRun<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank communication statistics, indexed by rank.
    pub comm: Vec<CommStats>,
}

impl<R> ClusterRun<R> {
    /// Aggregate the per-rank statistics (sums volumes, maxes the per-pair maxima).
    pub fn total_comm(&self) -> CommStats {
        CommStats::aggregate(&self.comm)
    }
}

/// How [`Cluster::run_recovering_wire`] reacts to a recoverable generation failure:
/// how many times the ranks may be respawned, and how long to back off before
/// each respawn (the backoff doubles per attempt).
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Maximum number of respawn attempts after the initial run. `0` disables
    /// recovery entirely and degrades to [`Cluster::run`] semantics.
    pub max_attempts: usize,
    /// Base backoff slept before the first respawn; doubled on every further attempt.
    pub backoff: Duration,
}

impl RecoveryPolicy {
    /// A policy that never retries: failures surface exactly as under [`Cluster::run`].
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_attempts: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// The result of [`Cluster::run_recovering_wire`]: the final generation's per-rank results
/// and traffic, plus how many recovery generations were needed.
#[derive(Debug)]
pub struct RecoveringRun<T, E> {
    /// Per-rank results of the last generation, indexed by rank.
    pub results: Vec<Result<T, E>>,
    /// Per-rank communication statistics of the last generation, indexed by rank.
    pub comm: Vec<CommStats>,
    /// Number of times the ranks were respawned after a recoverable failure.
    pub recoveries: usize,
}

/// Best-effort text of a panic payload, for the abort record peers see.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

impl Cluster {
    /// Create a cluster of `ranks` ranks on the default [`Backend::Thread`].
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "a cluster needs at least one rank");
        Cluster {
            ranks,
            backend: Backend::default(),
            fault: None,
        }
    }

    /// Select the rank substrate: threads in this process (the default) or
    /// `fork()`ed processes exchanging real bytes over sockets. The process backend
    /// runs through [`Cluster::run_wire`] / [`Cluster::run_recovering_wire`], whose
    /// result types cross the process boundary via the [`Wire`] codec;
    /// [`Cluster::run`] (arbitrary result types) stays thread-only.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The selected rank substrate.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Attach a deterministic fault-injection plan (see [`fault::FaultPlan`]); every
    /// rank of the next [`Cluster::run`] observes it.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Run `f` once per rank (in parallel) and collect results and traffic statistics.
    ///
    /// The closure receives a [`RankCtx`] giving the rank id, the cluster size and the
    /// collective operations.
    ///
    /// A rank that panics no longer hangs its peers: the panic is caught, published as
    /// a cluster-wide abort (so every peer's blocked collective returns
    /// [`DmemError::PeerFailed`] naming the rank), and re-raised on the calling thread
    /// once every rank has finished.
    ///
    /// Always runs on the thread backend: an arbitrary `R` cannot cross a process
    /// boundary. Backend-dispatching drivers use [`Cluster::run_wire`].
    pub fn run<R, F>(&self, f: F) -> ClusterRun<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.run_generation(&f, 0)
    }

    /// Run `f` once per rank on the selected [`Backend`]. On [`Backend::Thread`] this
    /// is [`Cluster::run`]; on [`Backend::Process`] every rank is a forked process and
    /// the per-rank `Result<T, E>` comes back over a socket via the [`Wire`] codec.
    /// A rank that panics re-raises the panic on the calling thread, whichever
    /// backend — process ranks ship the panic text home first. This is
    /// [`Cluster::run_recovering_wire`] with [`RecoveryPolicy::disabled`].
    pub fn run_wire<T, E, F>(&self, f: F) -> ClusterRun<Result<T, E>>
    where
        T: Wire + Send,
        E: Wire + Send + From<DmemError>,
        F: Fn(&mut RankCtx) -> Result<T, E> + Sync,
    {
        let run = self.run_recovering_wire(&RecoveryPolicy::disabled(), |_: &E| false, f);
        ClusterRun {
            results: run.results,
            comm: run.comm,
        }
    }

    /// Run `f` once per rank on the selected [`Backend`] like [`Cluster::run_wire`],
    /// but when ranks fail with errors the `recoverable` predicate accepts, respawn the
    /// whole generation — fresh abort state, fresh exchange boards, same (already
    /// partially fired) fault plan — after a doubling backoff, up to
    /// `policy.max_attempts` times.
    ///
    /// This is in-run rank recovery: the join at the end of a generation is the
    /// recovery barrier every survivor reaches once the abort has unwound it, and
    /// re-invoking `f` with [`RankCtx::generation`] incremented is the respawn.
    /// Pipelines that checkpoint observe the bumped generation and restore from their
    /// last committed epoch instead of recounting from scratch. On
    /// [`Backend::Process`] a respawned generation forks a fresh set of rank
    /// processes; fault-plan state (which faults already fired) carries across
    /// generations, so a fail-once fault does not re-fire on the respawn.
    ///
    /// A generation is retried only when at least one rank failed **and every failed
    /// rank's error is recoverable** — a concrete local defect (wire corruption, an
    /// I/O error) degrades to today's typed abort immediately. Panics are never
    /// recovered: they re-raise on the calling thread exactly as under [`Cluster::run`].
    pub fn run_recovering_wire<T, E, F, P>(
        &self,
        policy: &RecoveryPolicy,
        recoverable: P,
        f: F,
    ) -> RecoveringRun<T, E>
    where
        T: Wire + Send,
        E: Wire + Send + From<DmemError>,
        F: Fn(&mut RankCtx) -> Result<T, E> + Sync,
        P: Fn(&E) -> bool,
    {
        let mut recoveries = 0usize;
        loop {
            let run = match self.backend {
                Backend::Thread => self.run_generation(&f, recoveries),
                Backend::Process => self.run_process_generation(&f, recoveries),
            };
            let failed = run.results.iter().filter(|r| r.is_err()).count();
            let all_recoverable = run
                .results
                .iter()
                .filter_map(|r| r.as_ref().err())
                .all(&recoverable);
            if failed > 0 && all_recoverable && recoveries < policy.max_attempts {
                hysortk_trace::log_at(
                    hysortk_trace::Verbosity::Verbose,
                    0,
                    format_args!(
                        "recovery: respawning generation {} after {failed} rank failure(s)",
                        recoveries + 1
                    ),
                );
                let backoff = policy
                    .backoff
                    .saturating_mul(1u32 << recoveries.min(16) as u32);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                recoveries += 1;
                continue;
            }
            return RecoveringRun {
                results: run.results,
                comm: run.comm,
                recoveries,
            };
        }
    }

    fn run_process_generation<T, E, F>(&self, f: &F, generation: usize) -> ClusterRun<Result<T, E>>
    where
        T: Wire + Send,
        E: Wire + Send + From<DmemError>,
        F: Fn(&mut RankCtx) -> Result<T, E> + Sync,
    {
        let outcome =
            process::run_process_generation(self.ranks, self.fault.clone(), generation, f);
        if let Some((_, detail)) = outcome.panic {
            // Re-raise the first child panic on the calling thread, matching the
            // thread backend's resume_unwind semantics as closely as text allows.
            panic!("{detail}");
        }
        ClusterRun {
            results: outcome.results,
            comm: outcome.comm,
        }
    }

    fn run_generation<R, F>(&self, f: &F, generation: usize) -> ClusterRun<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let shared = Arc::new(InProcShared::new(self.ranks));
        let mut results: Vec<Option<R>> = (0..self.ranks).map(|_| None).collect();
        let mut comm: Vec<Option<CommStats>> = (0..self.ranks).map(|_| None).collect();

        let first_panic = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.ranks);
            for (rank, (res_slot, comm_slot)) in results.iter_mut().zip(comm.iter_mut()).enumerate()
            {
                let shared = Arc::clone(&shared);
                let fault = self.fault.clone();
                handles.push(scope.spawn(move || {
                    let transport: Arc<dyn Transport> =
                        Arc::new(InProcessTransport::new(shared, rank));
                    let mut ctx = RankCtx::new(rank, Arc::clone(&transport), fault, generation);
                    if generation > 0 {
                        hysortk_trace::instant(
                            "recovery-generation",
                            hysortk_trace::Detail::Stage,
                            rank as u32,
                            &[("generation", generation as u64)],
                        );
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                        Ok(out) => {
                            *res_slot = Some(out);
                            *comm_slot = Some(ctx.into_stats());
                            None
                        }
                        Err(payload) => {
                            transport.publish_abort(rank, &panic_detail(&*payload));
                            Some(payload)
                        }
                    }
                }));
            }
            let mut first_panic = None;
            for h in handles {
                if let Some(payload) = h.join().expect("rank thread itself panicked") {
                    first_panic.get_or_insert(payload);
                }
            }
            first_panic
        });
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }

        ClusterRun {
            results: results
                .into_iter()
                .map(|r| r.expect("rank produced no result"))
                .collect(),
            comm: comm
                .into_iter()
                .map(|c| c.expect("rank produced no stats"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A rank error for the recovery tests: a message that crosses either backend.
    #[derive(Debug, PartialEq)]
    struct Lost(String);

    impl Wire for Lost {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }

        fn decode(input: &mut &[u8]) -> Option<Self> {
            String::decode(input).map(Lost)
        }
    }

    impl From<DmemError> for Lost {
        fn from(e: DmemError) -> Self {
            Lost(e.to_string())
        }
    }

    #[test]
    fn every_rank_runs_exactly_once() {
        let run = Cluster::new(8).run(|ctx| ctx.rank());
        assert_eq!(run.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_cluster_works() {
        let run = Cluster::new(1).run(|ctx| {
            let recv = ctx.alltoallv(vec![vec![1u32, 2, 3]], "self").unwrap();
            recv[0].len()
        });
        assert_eq!(run.results, vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Cluster::new(0);
    }

    #[test]
    fn run_recovering_respawns_failed_generations_until_success() {
        let policy = RecoveryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
        };
        let run = Cluster::new(4).run_recovering_wire(
            &policy,
            |e: &Lost| e.0.starts_with("lost"),
            |ctx| {
                // Rank 2 dies in generations 0 and 1; the third respawn heals. Peers
                // keep exchanging so the respawn exercises fresh boards per generation.
                let sum = ctx.allreduce_u64(ctx.rank() as u64, "probe", u64::wrapping_add);
                if ctx.generation() < 2 && ctx.rank() == 2 {
                    return Err(Lost(format!(
                        "lost rank 2 in generation {}",
                        ctx.generation()
                    )));
                }
                sum.map_err(Lost::from)
            },
        );
        assert_eq!(run.recoveries, 2);
        assert!(
            run.results.iter().all(|r| matches!(r, Ok(6))),
            "{:?}",
            run.results
        );
    }

    #[test]
    fn run_recovering_degrades_to_the_error_when_attempts_run_out() {
        let policy = RecoveryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        };
        let run = Cluster::new(2).run_recovering_wire(
            &policy,
            |_: &Lost| true,
            |ctx| {
                if ctx.rank() == 0 {
                    Err(Lost(format!("gen {}", ctx.generation())))
                } else {
                    Ok(0u8)
                }
            },
        );
        assert_eq!(run.recoveries, 1);
        assert_eq!(run.results[0].as_ref().unwrap_err().0, "gen 1");
        assert!(run.results[1].is_ok());
    }

    #[test]
    fn run_recovering_never_retries_unrecoverable_failures() {
        let policy = RecoveryPolicy {
            max_attempts: 5,
            backoff: Duration::ZERO,
        };
        let run = Cluster::new(2).run_recovering_wire(
            &policy,
            |e: &Lost| e.0 != "hard",
            |ctx| {
                if ctx.rank() == 1 {
                    Err(Lost("hard".to_string()))
                } else {
                    Ok(0u8)
                }
            },
        );
        assert_eq!(run.recoveries, 0);
        assert_eq!(run.results[1].as_ref().unwrap_err().0, "hard");
    }

    #[test]
    fn panicking_rank_unblocks_peers_and_reraises() {
        // Satellite regression for the old poisoned-condvar hang: rank 0 panics
        // mid-exchange; every peer must observe PeerFailed{rank: 0} (recorded through a
        // side channel because the panic is re-raised and the results are lost), and
        // the panic itself must surface on the calling thread.
        let observed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Cluster::new(3).run(|ctx| {
                if ctx.rank() == 0 {
                    panic!("rank 0 exploded");
                }
                let err = ctx
                    .allgather(ctx.rank() as u32, "exchange")
                    .expect_err("peers must fail once rank 0 dies");
                observed.lock().unwrap().push((ctx.rank(), err.to_string()));
            })
        }));
        assert!(outcome.is_err(), "the panic must be re-raised");
        let observed = observed.into_inner().unwrap();
        assert_eq!(observed.len(), 2, "both peers must unblock: {observed:?}");
        for (rank, msg) in &observed {
            assert!(
                msg.contains("peer rank 0") && msg.contains("rank 0 exploded"),
                "rank {rank} saw: {msg}"
            );
        }
    }

    #[test]
    fn run_wire_on_the_thread_backend_matches_run() {
        let run = Cluster::new(3).with_backend(Backend::Thread).run_wire(
            |ctx| -> Result<u64, DmemError> {
                ctx.allreduce_u64(ctx.rank() as u64, "sum", |a, b| a + b)
            },
        );
        for res in run.results {
            assert_eq!(res.unwrap(), 3);
        }
    }
}
