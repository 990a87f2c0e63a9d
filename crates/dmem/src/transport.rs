//! The byte-level point-to-point substrate under the collectives.
//!
//! Everything above this trait — the typed collectives, their traffic accounting,
//! fault injection, and the non-blocking round engine — is transport-agnostic. A
//! `Transport` moves flat byte segments between ranks and answers the two
//! cluster-wide control questions (has anyone aborted? can everyone synchronise?).
//! Two implementations exist:
//!
//! * `InProcessTransport` — every rank is a
//!   thread in one address space, data moves through a shared exchange board. This
//!   is the original simulator, behavior-identical down to its error strings.
//! * `ProcessTransport` — every rank is a
//!   `fork()`ed OS process and segments move as real bytes over UNIX domain
//!   sockets, so overlap wins are *measured* transfer time, not modeled.
//!
//! One `Transport` instance exists per rank; the instance knows its own rank and
//! the cluster size. Exchange and barrier calls follow MPI's SPMD discipline —
//! every rank issues the same sequence of calls — which is what lets the process
//! backend match frames by per-call sequence numbers without any negotiation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::error::DmemError;

/// Poll interval of abortable waits: how quickly a blocked rank notices an abort.
pub(crate) const ABORT_TICK: Duration = Duration::from_millis(2);

/// Backstop deadline of abortable waits: a rank that observes neither completion nor
/// an abort for this long gives up with [`DmemError::Timeout`] instead of hanging.
pub(crate) const WAIT_DEADLINE: Duration = Duration::from_secs(30);

/// Which rank substrate a [`Cluster`](crate::Cluster) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Ranks are OS threads in one address space (the original simulator).
    #[default]
    Thread,
    /// Ranks are `fork()`ed OS processes exchanging bytes over UNIX domain sockets.
    Process,
}

impl Backend {
    /// Stable lowercase name, as accepted by `hysortk count --backend`.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Process => "process",
        }
    }

    /// Parse the CLI spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "thread" => Some(Backend::Thread),
            "process" => Some(Backend::Process),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cluster-wide abort flag: the first failure wins and is broadcast to every blocked
/// rank. `publish` is idempotent — later failures keep the first (root-cause) record.
pub(crate) struct AbortState {
    flag: AtomicBool,
    info: Mutex<Option<(usize, String)>>,
}

impl AbortState {
    pub(crate) fn new() -> Self {
        AbortState {
            flag: AtomicBool::new(false),
            info: Mutex::new(None),
        }
    }

    /// Record that `rank` failed with `detail` and raise the abort flag. First-wins:
    /// if an abort is already published this is a no-op, so re-publishing an observed
    /// `PeerFailed` never overwrites the root cause.
    pub(crate) fn publish(&self, rank: usize, detail: &str) {
        {
            let mut info = self.info.lock().unwrap_or_else(|e| e.into_inner());
            if info.is_none() {
                *info = Some((rank, detail.to_string()));
            }
        }
        self.flag.store(true, Ordering::Release);
    }

    /// The abort as seen by a peer blocked at `round`, if one has been published.
    pub(crate) fn peer_failure(&self, round: usize) -> Option<DmemError> {
        if !self.flag.load(Ordering::Acquire) {
            return None;
        }
        let info = self.info.lock().unwrap_or_else(|e| e.into_inner());
        let (rank, detail) = info
            .clone()
            .unwrap_or((usize::MAX, "unidentified rank failure".to_string()));
        Some(DmemError::PeerFailed {
            rank,
            round,
            detail,
        })
    }
}

/// Byte-level rank-to-rank substrate. One instance per rank; see the module docs.
///
/// The round-engine entry points (`round_*`) operate on an exchange identified by
/// `seq`, the per-rank SPMD sequence number assigned by
/// [`RankCtx::round_exchange`](crate::collectives::RankCtx::round_exchange); every
/// rank opens its exchanges in the same order, so equal sequence numbers on
/// different ranks name the same exchange.
pub(crate) trait Transport: Send + Sync {
    /// Number of ranks in the cluster.
    fn size(&self) -> usize;
    /// Which backend this transport implements.
    fn backend(&self) -> Backend;

    /// Blocking all-to-all of one byte segment per destination (`segments.len() ==
    /// size`, self included); returns one segment per source in rank order. `label`
    /// and `round` name the collective for errors and timeouts.
    fn exchange(
        &self,
        label: &str,
        round: usize,
        segments: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, DmemError>;

    /// Synchronise all ranks; fails with [`DmemError::PeerFailed`] when a rank
    /// aborts instead of arriving.
    fn barrier(&self, label: &str, round: usize) -> Result<(), DmemError>;

    /// Open round exchange `seq` with `rounds` rounds. Must be called before any
    /// other `round_*` entry point for that `seq`.
    fn round_open(&self, seq: u64, rounds: usize);

    /// Post one round: segment `dst` of `data` is `data[displs[dst]..displs[dst+1]]`
    /// (`displs.len() == size + 1`). Returns without waiting for receivers.
    fn round_post(
        &self,
        seq: u64,
        round: usize,
        data: Vec<u8>,
        displs: &[usize],
    ) -> Result<(), DmemError>;

    /// Complete `round` if every rank's segment is available, filling `data` /
    /// `displs` (both cleared first; `displs` gets `size + 1` entries). Returns
    /// `Ok(false)` without blocking when segments are still missing, and the typed
    /// abort error once a peer has failed.
    fn round_try(
        &self,
        seq: u64,
        round: usize,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) -> Result<bool, DmemError>;

    /// Block until `round` can complete, then complete it as in
    /// [`Transport::round_try`]. A rank that observes neither completion nor an
    /// abort within the deadline publishes and returns [`DmemError::Timeout`].
    fn round_wait(
        &self,
        seq: u64,
        round: usize,
        label: &str,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) -> Result<(), DmemError>;

    /// Pop a recycled send buffer of exchange `seq` (cleared, capacity preserved),
    /// or an empty one when no posted buffer has been fully consumed yet.
    fn round_take_buffer(&self, seq: u64) -> Vec<u8>;

    /// Release the per-exchange state of `seq`. Idempotent.
    fn round_close(&self, seq: u64);

    /// Publish a cluster-wide abort naming `rank` (fan-out to all peers).
    fn publish_abort(&self, rank: usize, detail: &str);

    /// The published abort as seen by a rank blocked at `round`, if any.
    fn peer_failure(&self, round: usize) -> Option<DmemError>;
}
