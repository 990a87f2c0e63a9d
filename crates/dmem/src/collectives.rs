//! Rank context and collective operations.
//!
//! The collectives follow MPI semantics in SPMD style: every rank must call the same
//! sequence of collectives with compatible types, and each call is a synchronisation
//! point. Data moves through the rank's `Transport` — byte segments between
//! rank-private buffers — so a rank can only observe another rank's data by receiving
//! it through a collective, mirroring real distributed memory. Payloads of the
//! matrix collectives are encoded with the [`crate::wire::Wire`] codec; the
//! hot flat exchanges reinterpret [`Pod`] element buffers as bytes directly.
//!
//! Every collective returns `Result<_, DmemError>`: when any rank fails (panics, hits
//! an injected fault, or publishes a local error via [`RankCtx::abort`]), a
//! cluster-wide abort flag is raised and every peer blocked in a barrier or a round
//! wait unblocks promptly with [`DmemError::PeerFailed`] naming the failing rank —
//! a failing rank can no longer hang its peers.

use std::sync::Arc;

use crate::error::DmemError;
use crate::fault::FaultPlan;
use crate::nonblocking::RoundExchange;
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::wire::{self, Pod, Wire};

/// The per-rank handle passed to the closure given to [`crate::Cluster::run`].
pub struct RankCtx {
    rank: usize,
    size: usize,
    transport: Arc<dyn Transport>,
    /// The active fault-injection plan, if any; `None` costs one branch per collective.
    fault: Option<Arc<FaultPlan>>,
    stats: CommStats,
    /// Sequence number of the next non-blocking round exchange this rank opens; the
    /// SPMD discipline makes the N-th exchange of every rank resolve to one board.
    nb_seq: u64,
    /// Recovery generation: 0 on a first run, `n` on the n-th respawn after a
    /// recoverable rank failure (see [`crate::Cluster::run_recovering_wire`]).
    generation: usize,
}

/// Result of a round-limited padded exchange ([`RankCtx::alltoall_rounds`]).
#[derive(Debug, Clone)]
pub struct RoundedExchange<T> {
    /// Received items, indexed by source rank.
    pub received: Vec<Vec<T>>,
    /// Number of communication rounds the exchange needed.
    pub rounds: usize,
}

/// Flat receive buffer of an `Alltoallv`-style exchange: the segments from every source
/// rank concatenated in rank order, with `displs[src]..displs[src + 1]` delimiting the
/// segment of rank `src` (`displs.len() == size + 1`).
#[derive(Debug, Clone)]
pub struct FlatReceived<T> {
    /// All received elements, source-major.
    pub data: Vec<T>,
    /// Exclusive prefix displacements, one entry per source rank plus the total.
    pub displs: Vec<usize>,
}

impl<T> FlatReceived<T> {
    /// An empty receive buffer, ready to be filled by
    /// [`RoundExchange::wait_round`](crate::nonblocking::RoundExchange::wait_round).
    /// Reusing one (or two, double-buffered) across rounds keeps the steady-state
    /// receive side allocation-free.
    pub fn empty() -> Self {
        FlatReceived {
            data: Vec::new(),
            displs: vec![0],
        }
    }

    /// The segment received from `src`.
    pub fn from_rank(&self, src: usize) -> &[T] {
        &self.data[self.displs[src]..self.displs[src + 1]]
    }

    /// Number of source ranks.
    pub fn num_sources(&self) -> usize {
        self.displs.len() - 1
    }

    /// Elements received from `src`.
    pub fn count_from(&self, src: usize) -> usize {
        self.displs[src + 1] - self.displs[src]
    }
}

/// Result of a round-limited padded flat exchange ([`RankCtx::alltoall_rounds_flat`]).
#[derive(Debug, Clone)]
pub struct FlatRoundedExchange<T> {
    /// The flat receive buffer.
    pub received: FlatReceived<T>,
    /// Number of communication rounds the exchange needed.
    pub rounds: usize,
}

impl RankCtx {
    pub(crate) fn new(
        rank: usize,
        transport: Arc<dyn Transport>,
        fault: Option<Arc<FaultPlan>>,
        generation: usize,
    ) -> Self {
        let size = transport.size();
        RankCtx {
            rank,
            size,
            transport,
            fault,
            stats: CommStats::new(size),
            nb_seq: 0,
            generation,
        }
    }

    pub(crate) fn into_stats(self) -> CommStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Which backend this rank runs on (thread or process).
    pub fn backend(&self) -> crate::transport::Backend {
        self.transport.backend()
    }

    /// Which recovery generation this rank belongs to: 0 on a cluster's first run,
    /// `n` when [`crate::Cluster::run_recovering_wire`] respawned the ranks for the n-th
    /// time after a recoverable failure. Pipelines use this to decide whether to
    /// restore state from their last committed checkpoint epoch.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Read-only view of the traffic recorded so far by this rank.
    pub fn comm_stats(&self) -> &CommStats {
        &self.stats
    }

    /// The cluster's active fault-injection plan, if one was attached with
    /// [`Cluster::with_fault_plan`](crate::Cluster::with_fault_plan). The ingest layer
    /// uses this to route transient-I/O faults through the real retry path.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// Owned handle on the active fault plan, for components (like a checkpoint
    /// writer) that outlive a single borrow of the context.
    pub fn fault_plan_arc(&self) -> Option<Arc<FaultPlan>> {
        self.fault.clone()
    }

    /// Publish a cluster-wide abort naming this rank: every peer currently blocked in
    /// a collective or a round wait (and every later collective call) returns
    /// [`DmemError::PeerFailed`] with this rank and `detail`.
    ///
    /// Call this before returning an error out of SPMD code that still has peers
    /// inside collectives — otherwise those peers would wait for posts that will
    /// never come.
    pub fn abort(&self, detail: &str) {
        self.transport.publish_abort(self.rank, detail);
    }

    /// Synchronise all ranks. Fails with [`DmemError::PeerFailed`] when a rank
    /// aborts instead of arriving.
    pub fn barrier(&self) -> Result<(), DmemError> {
        let result = self.transport.barrier("barrier", 0);
        if let Err(e) = &result {
            self.publish_local_failure(e);
        }
        result
    }

    /// Publish a cluster-wide abort for an error that originated on this rank.
    /// A [`DmemError::PeerFailed`] is an *observation* of someone else's abort,
    /// not a new failure — re-publishing it would re-announce the abort under
    /// this rank's name and could overtake the original on another backend's
    /// fan-out, so echoes are deliberately not forwarded.
    fn publish_local_failure(&self, e: &DmemError) {
        if !matches!(e, DmemError::PeerFailed { .. }) {
            self.transport.publish_abort(self.rank, &e.to_string());
        }
    }

    /// Core primitive: every rank posts one vector of items per destination and receives
    /// one vector per source. Returns `received[src]`. Does not record statistics —
    /// the public collectives wrap this and do their own accounting. Any failure
    /// publishes a cluster-wide abort before returning, so no peer is left waiting.
    fn exchange_matrix<T: Wire + Clone + Send + 'static>(
        &self,
        send: Vec<Vec<T>>,
        label: &str,
        round: usize,
    ) -> Result<Vec<Vec<T>>, DmemError> {
        let result = self.exchange_matrix_inner(send, label, round);
        if let Err(e) = &result {
            self.publish_local_failure(e);
        }
        result
    }

    fn exchange_matrix_inner<T: Wire + Clone + Send + 'static>(
        &self,
        send: Vec<Vec<T>>,
        label: &str,
        round: usize,
    ) -> Result<Vec<Vec<T>>, DmemError> {
        if let Some(e) = self.transport.peer_failure(round) {
            return Err(e);
        }
        if let Some(plan) = &self.fault {
            plan.apply_control(self.rank, label, round)?;
        }
        assert_eq!(
            send.len(),
            self.size(),
            "send matrix must have one row per destination"
        );
        let segments: Vec<Vec<u8>> = send.iter().map(wire::to_bytes).collect();
        let received = self.transport.exchange(label, round, segments)?;
        received
            .iter()
            .enumerate()
            .map(|(src, seg)| {
                wire::from_bytes::<Vec<T>>(seg).ok_or_else(|| {
                    DmemError::Protocol(format!(
                        "collective mismatch in '{label}': rank {src} posted an \
                         inconsistent element type"
                    ))
                })
            })
            .collect()
    }

    /// Flat-buffer core primitive: every rank posts one contiguous buffer plus
    /// per-destination counts; rank `dst`'s segment is
    /// `send[displs[dst]..displs[dst + 1]]`. Each receiver copies exactly one segment
    /// per source into its flat receive buffer — no nested per-destination vectors, no
    /// per-element encoding ([`Pod`] buffers go on the wire as raw bytes). Does not
    /// record statistics.
    fn exchange_flat<T: Pod>(
        &self,
        send: Vec<T>,
        counts: &[usize],
        label: &str,
        round: usize,
    ) -> Result<FlatReceived<T>, DmemError> {
        let result = self.exchange_flat_inner(send, counts, label, round);
        if let Err(e) = &result {
            self.publish_local_failure(e);
        }
        result
    }

    fn exchange_flat_inner<T: Pod>(
        &self,
        mut send: Vec<T>,
        counts: &[usize],
        label: &str,
        round: usize,
    ) -> Result<FlatReceived<T>, DmemError> {
        if let Some(e) = self.transport.peer_failure(round) {
            return Err(e);
        }
        assert_eq!(
            counts.len(),
            self.size(),
            "one count per destination required"
        );
        let mut counts_owned;
        let counts: &[usize] = if let Some(plan) = &self.fault {
            counts_owned = counts.to_vec();
            plan.apply_to_segments(self.rank, label, round, &mut send, &mut counts_owned)?;
            &counts_owned
        } else {
            counts
        };
        let mut displs = Vec::with_capacity(self.size() + 1);
        let mut acc = 0usize;
        displs.push(0);
        for &c in counts {
            acc += c;
            displs.push(acc);
        }
        assert_eq!(acc, send.len(), "counts must sum to the send buffer length");
        let segments: Vec<Vec<u8>> = (0..self.size())
            .map(|dst| wire::pod_bytes(&send[displs[dst]..displs[dst + 1]]).to_vec())
            .collect();
        let received = self.transport.exchange(label, round, segments)?;
        let mut recv_displs = Vec::with_capacity(self.size() + 1);
        recv_displs.push(0);
        let mut data: Vec<T> = Vec::new();
        for (src, seg) in received.iter().enumerate() {
            wire::extend_from_pod_bytes(&mut data, seg).ok_or_else(|| {
                DmemError::Protocol(format!(
                    "collective mismatch in '{label}': rank {src} posted an \
                     inconsistent element type"
                ))
            })?;
            recv_displs.push(data.len());
        }
        Ok(FlatReceived {
            data,
            displs: recv_displs,
        })
    }

    /// Irregular all-to-all (`MPI_Alltoallv`): `send[dst]` goes to rank `dst`; returns
    /// `received[src]`. Traffic is recorded under `label`.
    pub fn alltoallv<T: Wire + Clone + Send + 'static>(
        &mut self,
        send: Vec<Vec<T>>,
        label: &str,
    ) -> Result<Vec<Vec<T>>, DmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let per_dest: Vec<u64> = send.iter().map(|v| v.len() as u64 * elem).collect();
        let max_pair = per_dest
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, &b)| b)
            .max()
            .unwrap_or(0);
        let received = self.exchange_matrix(send, label, 0)?;
        self.stats
            .record(label, &per_dest, 0, 1, self.rank, max_pair);
        Ok(received)
    }

    /// Shared sizing/accounting of a round-limited padded exchange: the global-max
    /// allreduce, the round count, the padding volume and the per-round pair maximum.
    /// Both [`RankCtx::alltoall_rounds`] and [`RankCtx::alltoall_rounds_flat`] go
    /// through here so the nested and flat paths can never drift apart.
    ///
    /// Returns `(per_dest_bytes, rounds, padding, max_pair)`.
    fn rounds_accounting(
        &mut self,
        element_counts: &[usize],
        elem: u64,
        batch: usize,
    ) -> Result<(Vec<u64>, usize, u64, u64), DmemError> {
        assert!(batch > 0, "batch size must be positive");
        let local_max = element_counts.iter().copied().max().unwrap_or(0);
        let global_max =
            self.allreduce_u64(local_max as u64, "exchange-sizing", u64::max)? as usize;
        let rounds = global_max.div_ceil(batch).max(1);

        let per_dest: Vec<u64> = element_counts.iter().map(|&c| c as u64 * elem).collect();
        // Padding: every (round, destination) slot is `batch` items on the wire.
        let padded_total = (rounds * batch * (self.size().saturating_sub(1))) as u64 * elem;
        let payload_total: u64 = per_dest
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, &b)| b)
            .sum();
        let padding = padded_total.saturating_sub(payload_total);
        let max_pair = (batch as u64 * elem).min(
            per_dest
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != self.rank)
                .map(|(_, &b)| b)
                .max()
                .unwrap_or(0)
                .max(batch as u64 * elem),
        );
        Ok((per_dest, rounds, padding, max_pair))
    }

    /// Regular padded all-to-all in rounds, the exchange pattern HySortK uses (§3.3.1):
    /// each round every rank sends exactly `batch` items to every destination, padding
    /// short messages; the number of rounds is the global maximum `⌈len/batch⌉`.
    ///
    /// The returned data is identical to [`RankCtx::alltoallv`]; what differs is the
    /// recorded traffic (padding) and round count, which the performance model uses.
    pub fn alltoall_rounds<T: Wire + Clone + Send + 'static>(
        &mut self,
        send: Vec<Vec<T>>,
        batch: usize,
        label: &str,
    ) -> Result<RoundedExchange<T>, DmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let element_counts: Vec<usize> = send.iter().map(Vec::len).collect();
        let (per_dest, rounds, padding, max_pair) =
            self.rounds_accounting(&element_counts, elem, batch)?;
        let received = self.exchange_matrix(send, label, 0)?;
        self.stats
            .record(label, &per_dest, padding, rounds, self.rank, max_pair);
        Ok(RoundedExchange { received, rounds })
    }

    /// Flat-buffer irregular all-to-all (`MPI_Alltoallv` with counts/displacements):
    /// one contiguous send buffer whose segment `dst` holds `counts[dst]` elements.
    /// Moves exactly one segment per rank pair and returns a flat receive buffer.
    /// Traffic is recorded under `label`, byte-identically to [`RankCtx::alltoallv`].
    pub fn alltoallv_flat<T: Pod>(
        &mut self,
        send: Vec<T>,
        counts: &[usize],
        label: &str,
    ) -> Result<FlatReceived<T>, DmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let per_dest: Vec<u64> = counts.iter().map(|&c| c as u64 * elem).collect();
        let max_pair = per_dest
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, &b)| b)
            .max()
            .unwrap_or(0);
        let received = self.exchange_flat(send, counts, label, 0)?;
        self.stats
            .record(label, &per_dest, 0, 1, self.rank, max_pair);
        Ok(received)
    }

    /// Flat-buffer variant of [`RankCtx::alltoall_rounds`]: the same round-limited
    /// padded exchange pattern (§3.3.1) and identical traffic accounting, but the
    /// payload moves as one flat buffer plus counts instead of nested per-destination
    /// vectors.
    pub fn alltoall_rounds_flat<T: Pod>(
        &mut self,
        send: Vec<T>,
        counts: &[usize],
        batch: usize,
        label: &str,
    ) -> Result<FlatRoundedExchange<T>, DmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let (per_dest, rounds, padding, max_pair) = self.rounds_accounting(counts, elem, batch)?;
        let received = self.exchange_flat(send, counts, label, 0)?;
        self.stats
            .record(label, &per_dest, padding, rounds, self.rank, max_pair);
        Ok(FlatRoundedExchange { received, rounds })
    }

    /// Open a non-blocking round exchange of `rounds` rounds (see
    /// [`crate::nonblocking`]): an `MPI_Ialltoallv`-style handle where each round's
    /// flat send segments are posted without blocking and completed per round, so
    /// serialization of the next round and decoding of the previous one proceed while
    /// a round is in flight.
    ///
    /// Every rank must open the exchange with the same `rounds` (agree on it with a
    /// collective first, e.g. [`RankCtx::allreduce_u64`] over the local round counts),
    /// post and complete every round exactly once, and close the handle with
    /// [`RoundExchange::finish`] to record the traffic under `label`.
    pub fn round_exchange(&mut self, rounds: usize, label: &str) -> RoundExchange {
        assert!(rounds > 0, "a round exchange needs at least one round");
        let seq = self.nb_seq;
        self.nb_seq += 1;
        self.transport.round_open(seq, rounds);
        RoundExchange::new(
            Arc::clone(&self.transport),
            seq,
            rounds,
            self.rank,
            label,
            self.fault.clone(),
        )
    }

    /// All-gather a single value from every rank (indexed by rank).
    pub fn allgather<T: Wire + Clone + Send + 'static>(
        &mut self,
        value: T,
        label: &str,
    ) -> Result<Vec<T>, DmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let send: Vec<Vec<T>> = (0..self.size()).map(|_| vec![value.clone()]).collect();
        let per_dest: Vec<u64> = vec![elem; self.size()];
        let received = self.exchange_matrix(send, label, 0)?;
        self.stats.record(label, &per_dest, 0, 1, self.rank, elem);
        received
            .into_iter()
            .enumerate()
            .map(|(src, mut v)| {
                v.pop().ok_or_else(|| {
                    DmemError::Protocol(format!(
                        "collective mismatch in '{label}': rank {src} sent no value"
                    ))
                })
            })
            .collect()
    }

    /// All-reduce with an arbitrary associative combine function. Implemented as an
    /// all-gather followed by a deterministic left fold, so every rank computes exactly
    /// the same result (MPI requires the same determinism from its reduction ops).
    pub fn allreduce<T, F>(&mut self, value: T, label: &str, combine: F) -> Result<T, DmemError>
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let mut gathered = self.allgather(value, label)?.into_iter();
        let first = gathered.next().expect("at least one rank");
        Ok(gathered.fold(first, combine))
    }

    /// Convenience u64 all-reduce.
    pub fn allreduce_u64(
        &mut self,
        value: u64,
        label: &str,
        combine: fn(u64, u64) -> u64,
    ) -> Result<u64, DmemError> {
        self.allreduce(value, label, combine)
    }

    /// Element-wise vector sum all-reduce (`MPI_Allreduce` with `MPI_SUM` on a `u64`
    /// array), implemented with the MPICH-style recursive-doubling butterfly: ranks
    /// beyond the largest power of two fold into a partner first, the surviving
    /// hypercube exchanges whole vectors for `log2` steps, and the folded ranks get the
    /// result back at the end. Every rank returns the identical sum vector.
    ///
    /// Per rank this moves `O(log p)` vector-sized messages — the task-size collective
    /// the pipeline uses it for would otherwise cost `O(p)` vector copies per rank
    /// (`O(p²·tasks)` total) through a naive all-to-all. The recorded traffic is what
    /// the butterfly actually sent, phase by phase.
    pub fn allreduce_sum_u64(&mut self, local: &[u64], label: &str) -> Result<Vec<u64>, DmemError> {
        let p = self.size();
        let rank = self.rank;
        let n = local.len();
        let vec_bytes = (n * 8) as u64;
        let mut acc = local.to_vec();
        let mut per_dest = vec![0u64; p];
        let mut phases = 0usize;

        // One butterfly phase: everyone synchronises; ranks with a `send_to` partner
        // post their vector there; ranks with a `recv_from` partner read it back. The
        // phase index doubles as the fault-site round.
        let phase = |acc: &mut Vec<u64>,
                     per_dest: &mut Vec<u64>,
                     phases: &mut usize,
                     send_to: Option<usize>,
                     recv_from: Option<usize>,
                     combine: bool|
         -> Result<(), DmemError> {
            let mut send: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            if let Some(dst) = send_to {
                send[dst] = acc.clone();
                per_dest[dst] += vec_bytes;
            }
            let received = self.exchange_matrix(send, label, *phases)?;
            if let Some(src) = recv_from {
                let other = &received[src];
                debug_assert_eq!(other.len(), n, "allreduce_sum_u64 length mismatch");
                if combine {
                    for (a, b) in acc.iter_mut().zip(other) {
                        *a += b;
                    }
                } else {
                    acc.copy_from_slice(other);
                }
            }
            *phases += 1;
            Ok(())
        };

        let pof2 = if p.is_power_of_two() {
            p
        } else {
            p.next_power_of_two() / 2
        };
        let rem = p - pof2;

        // Fold the ranks beyond the power of two into their odd partners.
        if rem > 0 {
            let (send_to, recv_from) = if rank < 2 * rem {
                if rank.is_multiple_of(2) {
                    (Some(rank + 1), None)
                } else {
                    (None, Some(rank - 1))
                }
            } else {
                (None, None)
            };
            phase(
                &mut acc,
                &mut per_dest,
                &mut phases,
                send_to,
                recv_from,
                true,
            )?;
        }

        // Recursive doubling over the surviving hypercube of `pof2` ranks.
        let newrank = if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                None
            } else {
                Some(rank / 2)
            }
        } else {
            Some(rank - rem)
        };
        let to_real = |q: usize| if q < rem { 2 * q + 1 } else { q + rem };
        let mut mask = 1usize;
        while mask < pof2 {
            let partner = newrank.map(|q| to_real(q ^ mask));
            phase(&mut acc, &mut per_dest, &mut phases, partner, partner, true)?;
            mask <<= 1;
        }

        // Hand the result back to the folded even ranks.
        if rem > 0 {
            let (send_to, recv_from) = if rank < 2 * rem {
                if rank % 2 == 1 {
                    (Some(rank - 1), None)
                } else {
                    (None, Some(rank + 1))
                }
            } else {
                (None, None)
            };
            phase(
                &mut acc,
                &mut per_dest,
                &mut phases,
                send_to,
                recv_from,
                false,
            )?;
        }

        let max_pair = if phases > 0 && p > 1 { vec_bytes } else { 0 };
        self.stats
            .record(label, &per_dest, 0, phases.max(1), rank, max_pair);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::{FaultKind, FaultPlan};
    use crate::{Cluster, DmemError};
    use std::sync::Arc;

    #[test]
    fn alltoallv_routes_data_to_the_right_ranks() {
        let p = 6;
        let run = Cluster::new(p).run(|ctx| {
            // Rank r sends the value 100*r + dst to each destination dst, repeated r+1 times.
            let send: Vec<Vec<u32>> = (0..ctx.size())
                .map(|dst| vec![(100 * ctx.rank() + dst) as u32; ctx.rank() + 1])
                .collect();
            ctx.alltoallv(send, "test").unwrap()
        });
        for (dst, received) in run.results.iter().enumerate() {
            for (src, items) in received.iter().enumerate() {
                assert_eq!(items.len(), src + 1);
                assert!(items.iter().all(|&v| v == (100 * src + dst) as u32));
            }
        }
    }

    #[test]
    fn alltoallv_conserves_total_items() {
        let p = 5;
        let run = Cluster::new(p).run(|ctx| {
            let send: Vec<Vec<u8>> = (0..ctx.size())
                .map(|dst| vec![0u8; (ctx.rank() * 7 + dst * 3) % 11])
                .collect();
            let sent: usize = send.iter().map(|v| v.len()).sum();
            let recv = ctx.alltoallv(send, "conserve").unwrap();
            let received: usize = recv.iter().map(|v| v.len()).sum();
            (sent, received)
        });
        let total_sent: usize = run.results.iter().map(|(s, _)| s).sum();
        let total_received: usize = run.results.iter().map(|(_, r)| r).sum();
        assert_eq!(total_sent, total_received);
    }

    #[test]
    fn rounds_exchange_counts_rounds_and_padding() {
        let p = 4;
        let run = Cluster::new(p).run(|ctx| {
            // Rank 0 sends 10 items to each destination, everyone else sends 1.
            let n = if ctx.rank() == 0 { 10 } else { 1 };
            let send: Vec<Vec<u64>> = (0..ctx.size()).map(|_| vec![7u64; n]).collect();
            let ex = ctx.alltoall_rounds(send, 4, "rounds").unwrap();
            (ex.rounds, ctx.comm_stats().padding_bytes)
        });
        // Global max message is 10 items, batch 4 -> 3 rounds everywhere.
        for (rounds, _) in &run.results {
            assert_eq!(*rounds, 3);
        }
        // Rank 1 sends 1 real item per destination but pays for 3 rounds * 4 slots.
        let (_, padding_rank1) = run.results[1];
        assert_eq!(padding_rank1, (3 * 4 - 1) as u64 * 8 * 3);
    }

    #[test]
    fn flat_exchange_matches_nested_alltoallv() {
        // The flat path must deliver byte-identical data and byte-identical traffic
        // accounting to the nested-vector path it replaces.
        let p = 5;
        let run = Cluster::new(p).run(|ctx| {
            let nested: Vec<Vec<u8>> = (0..ctx.size())
                .map(|dst| {
                    (0..(ctx.rank() * 7 + dst * 3) % 11)
                        .map(|i| (ctx.rank() * 100 + dst * 10 + i) as u8)
                        .collect()
                })
                .collect();
            let counts: Vec<usize> = nested.iter().map(|v| v.len()).collect();
            let flat: Vec<u8> = nested.iter().flatten().copied().collect();

            let from_nested = ctx.alltoallv(nested, "nested").unwrap();
            let nested_stats = ctx.comm_stats().stage("nested").unwrap().clone();
            let from_flat = ctx.alltoallv_flat(flat, &counts, "flat").unwrap();
            let flat_stats = ctx.comm_stats().stage("flat").unwrap().clone();

            let equal =
                (0..ctx.size()).all(|src| from_nested[src].as_slice() == from_flat.from_rank(src));
            (
                equal,
                nested_stats.payload_bytes == flat_stats.payload_bytes,
            )
        });
        for (data_equal, stats_equal) in run.results {
            assert!(data_equal, "flat exchange delivered different bytes");
            assert!(stats_equal, "flat exchange recorded different traffic");
        }
    }

    #[test]
    fn flat_rounds_match_nested_rounds_and_padding() {
        let p = 4;
        let run = Cluster::new(p).run(|ctx| {
            let n = if ctx.rank() == 0 { 10 } else { 1 };
            let nested: Vec<Vec<u64>> = (0..ctx.size()).map(|_| vec![7u64; n]).collect();
            let counts = vec![n; ctx.size()];
            let flat: Vec<u64> = vec![7u64; n * ctx.size()];

            let nested_ex = ctx.alltoall_rounds(nested, 4, "nested-rounds").unwrap();
            let nested_padding = ctx
                .comm_stats()
                .stage("nested-rounds")
                .unwrap()
                .padding_bytes;
            let flat_ex = ctx
                .alltoall_rounds_flat(flat, &counts, 4, "flat-rounds")
                .unwrap();
            let flat_padding = ctx.comm_stats().stage("flat-rounds").unwrap().padding_bytes;

            let data_equal = (0..ctx.size())
                .all(|src| nested_ex.received[src].as_slice() == flat_ex.received.from_rank(src));
            (
                nested_ex.rounds,
                flat_ex.rounds,
                nested_padding,
                flat_padding,
                data_equal,
            )
        });
        for (nested_rounds, flat_rounds, nested_padding, flat_padding, data_equal) in run.results {
            assert_eq!(nested_rounds, flat_rounds);
            assert_eq!(nested_padding, flat_padding);
            assert!(data_equal);
        }
    }

    #[test]
    fn flat_exchange_handles_empty_segments() {
        let run = Cluster::new(3).run(|ctx| {
            // Only rank 1 sends anything, and only to rank 2.
            let (flat, counts) = if ctx.rank() == 1 {
                (vec![9u32, 8, 7], vec![0usize, 0, 3])
            } else {
                (Vec::new(), vec![0usize; 3])
            };
            let recv = ctx.alltoallv_flat(flat, &counts, "sparse").unwrap();
            (0..ctx.size())
                .map(|src| recv.count_from(src))
                .collect::<Vec<_>>()
        });
        assert_eq!(run.results[0], vec![0, 0, 0]);
        assert_eq!(run.results[1], vec![0, 0, 0]);
        assert_eq!(run.results[2], vec![0, 3, 0]);
    }

    #[test]
    fn allreduce_sum_u64_sums_vectors_for_any_rank_count() {
        for p in 1..=9usize {
            let run = Cluster::new(p).run(|ctx| {
                // Rank r contributes value r + 10*t for task slot t.
                let local: Vec<u64> = (0..5u64).map(|t| ctx.rank() as u64 + 10 * t).collect();
                ctx.allreduce_sum_u64(&local, "sizes").unwrap()
            });
            let rank_sum: u64 = (0..p as u64).sum();
            let expected: Vec<u64> = (0..5u64).map(|t| rank_sum + 10 * t * p as u64).collect();
            for (rank, result) in run.results.iter().enumerate() {
                assert_eq!(result, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn allreduce_sum_u64_traffic_is_butterfly_not_all_to_all() {
        let p = 8;
        let n = 1000usize;
        let run = Cluster::new(p).run(|ctx| {
            let local = vec![1u64; n];
            let sum = ctx.allreduce_sum_u64(&local, "sizes").unwrap();
            assert_eq!(sum, vec![p as u64; n]);
            ctx.comm_stats().stage("sizes").unwrap().payload_bytes
        });
        let vec_bytes = (n * 8) as u64;
        for &payload in &run.results {
            // log2(8) = 3 exchanges of one vector each; the naive approach the pipeline
            // used before sent (p-1) = 7 copies per rank.
            assert_eq!(payload, 3 * vec_bytes);
        }
    }

    #[test]
    fn allreduce_sum_u64_handles_non_power_of_two_traffic() {
        // p = 6: pof2 = 4, rem = 2. Folded even ranks send once and receive the result;
        // hypercube ranks exchange log2(4) = 2 vectors; odd fold partners add the two
        // fold phases on top. Everyone must still agree on the sum.
        let p = 6;
        let run = Cluster::new(p).run(|ctx| {
            let local = vec![ctx.rank() as u64; 3];
            let sum = ctx.allreduce_sum_u64(&local, "sizes").unwrap();
            (sum, ctx.comm_stats().stage("sizes").unwrap().payload_bytes)
        });
        let expected = vec![15u64; 3];
        let vec_bytes = 24u64;
        for (rank, (sum, payload)) in run.results.iter().enumerate() {
            assert_eq!(sum, &expected, "rank {rank}");
            // No rank sends more than (log2(pof2) + 1) vectors.
            assert!(
                *payload <= 3 * vec_bytes,
                "rank {rank} sent {payload} bytes"
            );
        }
    }

    #[test]
    fn allreduce_and_allgather_agree_across_ranks() {
        let run = Cluster::new(7).run(|ctx| {
            let sum = ctx
                .allreduce_u64(ctx.rank() as u64 + 1, "sum", |a, b| a + b)
                .unwrap();
            let max = ctx
                .allreduce_u64(ctx.rank() as u64, "max", u64::max)
                .unwrap();
            let all = ctx.allgather(ctx.rank() as u32, "gather").unwrap();
            (sum, max, all)
        });
        for (sum, max, all) in run.results {
            assert_eq!(sum, 28);
            assert_eq!(max, 6);
            assert_eq!(all, (0..7u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stats_track_payload_per_destination() {
        let run = Cluster::new(3).run(|ctx| {
            let send: Vec<Vec<u32>> = vec![vec![1], vec![2, 2], vec![3, 3, 3]];
            ctx.alltoallv(send, "stage-a").unwrap();
            ctx.comm_stats().clone()
        });
        let s0 = &run.comm[0];
        assert_eq!(s0.sent_to, vec![4, 8, 12]);
        assert_eq!(s0.payload_bytes, 20); // self-send (4 bytes) excluded
        assert_eq!(s0.stage("stage-a").unwrap().payload_bytes, 20);
        let total = run.total_comm();
        assert_eq!(total.collectives, 3);
    }

    #[test]
    fn many_successive_collectives_do_not_deadlock_or_mix() {
        let run = Cluster::new(4).run(|ctx| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                let send: Vec<Vec<u64>> = (0..ctx.size())
                    .map(|_| vec![round + ctx.rank() as u64])
                    .collect();
                let recv = ctx.alltoallv(send, "loop").unwrap();
                acc += recv.iter().map(|v| v[0]).sum::<u64>();
            }
            acc
        });
        assert!(run.results.iter().all(|&x| x == run.results[0]));
    }

    #[test]
    fn injected_rank_failure_unblocks_all_peers_with_peer_failed() {
        // The ISSUE's regression pin: rank 2 dies at the exchange; every other rank
        // must come back promptly with PeerFailed naming rank 2 — no hang, no panic.
        let p = 4;
        let plan = Arc::new(FaultPlan::new().with_fault(2, "exchange", 0, FaultKind::FailRank));
        let run = Cluster::new(p)
            .with_fault_plan(Arc::clone(&plan))
            .run(|ctx| {
                let send = vec![ctx.rank() as u8; ctx.size()];
                let counts = vec![1usize; ctx.size()];
                ctx.alltoallv_flat(send, &counts, "exchange").err()
            });
        assert_eq!(plan.fired_count(), 1);
        for (rank, err) in run.results.iter().enumerate() {
            let err = err.as_ref().expect("every rank must fail");
            if rank == 2 {
                assert!(
                    matches!(err, DmemError::InjectedFault { rank: 2, .. }),
                    "rank 2 got {err}"
                );
            } else {
                assert!(
                    matches!(err, DmemError::PeerFailed { rank: 2, .. }),
                    "rank {rank} got {err}"
                );
            }
        }
    }

    #[test]
    fn delay_fault_changes_no_bytes() {
        let p = 3;
        let payload = |ctx: &mut crate::RankCtx| {
            let send: Vec<Vec<u32>> = (0..ctx.size())
                .map(|dst| vec![(ctx.rank() * 10 + dst) as u32])
                .collect();
            ctx.alltoallv(send, "exchange").unwrap()
        };
        let clean = Cluster::new(p).run(payload);
        let plan = Arc::new(FaultPlan::new().with_fault(
            1,
            "exchange",
            0,
            FaultKind::DelayPost { millis: 20 },
        ));
        let delayed = Cluster::new(p)
            .with_fault_plan(Arc::clone(&plan))
            .run(payload);
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(clean.results, delayed.results);
    }

    #[test]
    fn abort_poisons_every_later_collective() {
        // After a rank calls ctx.abort, every collective on every rank fails fast with
        // PeerFailed instead of waiting on barriers that can never complete.
        let p = 3;
        let run = Cluster::new(p).run(|ctx| {
            if ctx.rank() == 1 {
                ctx.abort("wire checksum mismatch in segment from rank 0");
                return Err(DmemError::Protocol("local failure".to_string()));
            }
            let first = ctx.allgather(ctx.rank() as u32, "a");
            let second = ctx.allgather(ctx.rank() as u32, "b");
            first.and(second)
        });
        for (rank, res) in run.results.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            match res {
                Err(DmemError::PeerFailed {
                    rank: 1, detail, ..
                }) => {
                    assert!(detail.contains("checksum"), "detail: {detail}");
                }
                other => panic!("rank {rank} got {other:?}"),
            }
        }
    }

    #[test]
    fn truncate_fault_shortens_exactly_one_segment() {
        let p = 3;
        let plan = Arc::new(FaultPlan::new().with_fault(
            0,
            "exchange",
            0,
            FaultKind::TruncateSegment { dest: 2, keep: 1 },
        ));
        let run = Cluster::new(p).with_fault_plan(plan).run(|ctx| {
            let send = vec![ctx.rank() as u8 + 1; 4 * ctx.size()];
            let counts = vec![4usize; ctx.size()];
            let recv = ctx.alltoallv_flat(send, &counts, "exchange").unwrap();
            (0..ctx.size())
                .map(|src| recv.count_from(src))
                .collect::<Vec<_>>()
        });
        assert_eq!(run.results[0], vec![4, 4, 4]);
        assert_eq!(run.results[1], vec![4, 4, 4]);
        // Rank 2 received a truncated segment from rank 0.
        assert_eq!(run.results[2], vec![1, 4, 4]);
    }
}
