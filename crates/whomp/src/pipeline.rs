//! Concurrent grammar construction for WHOMP.
//!
//! Single-threaded Sequitur construction is the wall of every
//! grammar-backed mode. WHOMP's OMSG keeps one **independent** Sequitur
//! per horizontal dimension, so [`WhompProfiler`](crate::WhompProfiler)
//! grows the instruction, group and object grammars on up to three
//! persistent workers while the collection thread grows the offset
//! grammar ([`Streams`]).
//!
//! # Batching and determinism
//!
//! The feed side ships per-dimension batches over **bounded** channels
//! (back-pressure, not unbounded memory), recycling spent buffers like
//! [`orp_core::sharded`]. Each dimension reaches exactly one grammar,
//! complete and in collection order, and Sequitur is a deterministic
//! function of its input — so batch boundaries and scheduling are
//! unobservable: container and checkpoint bytes are identical to
//! sequential construction. The differential tests and golden fixtures
//! pin this down.
//!
//! # Drain barrier
//!
//! Reading a WHOMP grammar mid-run (a checkpoint, a size query, the
//! final profile) flushes the batches and then *lends* each worker's
//! grammars to the collection thread: the lend request queues behind
//! every batch already shipped, so the worker answers only once it has
//! consumed them, and the grammars go back before collection resumes.
//!
//! # Degraded shutdown
//!
//! A dead grammar worker cannot be salvaged like a dead *shard* lane:
//! its in-progress grammar dies with its thread. The stage keeps the
//! salvage path's *containment* contract instead: the feed side keeps
//! accepting (and dropping) symbols after a worker dies — no deadlock,
//! no cascading panic — and the failure surfaces as a
//! [`PipelineError`] naming the worker and its dimensions at the next
//! drain or join, like
//! [`ShardedCdc::try_join`](orp_core::ShardedCdc::try_join).

use std::time::Instant;

use orp_core::sharded::panic_message;
use orp_core::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use orp_core::sync::thread::{self, JoinHandle};
use orp_core::PipelineError;
use orp_obs::Recorder;
use orp_sequitur::Sequitur;

/// Tuples per WHOMP column batch. Small enough that back-pressure from
/// a busy worker spreads evenly over collection instead of landing on
/// one long flush (4096-tuple batches doubled the p95 frame latency).
#[cfg(not(loom))]
const TUPLE_BATCH: usize = 512;
/// Model-checking build: tiny batches so a handful of tuples crosses
/// several channel transitions without exploding the schedule space.
#[cfg(loom)]
const TUPLE_BATCH: usize = 2;

/// Bounded queue depth, in column batches, of a WHOMP worker channel:
/// about three flushes of look-ahead when one worker owns all three
/// dimensions. Deeper queues only hold more idle buffers (32 cost
/// +0.2–0.3 MiB of peak RSS on `whomp-mcf`); depth 4 let stalls reach
/// the p95 frame latency.
#[cfg(not(loom))]
const COLUMN_QUEUE_BATCHES: usize = 8;
/// Model-checking build: depth 1 makes back-pressure reachable.
#[cfg(loom)]
const COLUMN_QUEUE_BATCHES: usize = 1;

/// The OMSG dimension names, in stream order.
const DIMS: [&str; 4] = ["instruction", "group", "object", "offset"];

/// The number of dimension streams.
const N: usize = DIMS.len();

/// The dimension the collection thread always builds itself. Its
/// grammar holds the largest state, and growing it on a worker kept
/// that memory in the worker thread's malloc arena (+6% peak RSS).
const OFFSET: usize = 3;

/// How many WHOMP grammar workers this host gets: one per spare core,
/// at most one per worker-built dimension. A 1-core host gets none and
/// builds all four grammars on the collection thread.
#[cfg(not(loom))]
fn grammar_workers() -> usize {
    thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .saturating_sub(1)
        .min(OFFSET)
}

/// Model-checking build: always one worker, so the model covers the
/// lend/return protocol on every host.
#[cfg(loom)]
fn grammar_workers() -> usize {
    1
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `(busy, batches, stalls)` counter names per dimension, in
/// stream order — the [`Recorder`] interface wants `&'static str`, so
/// the names are enumerated instead of formatted.
const COUNTER_NAMES: [(&str, &str, &str); N] = [
    (
        "grammar.worker_busy_ns.instruction",
        "grammar.batches.instruction",
        "grammar.stalls.instruction",
    ),
    (
        "grammar.worker_busy_ns.group",
        "grammar.batches.group",
        "grammar.stalls.group",
    ),
    (
        "grammar.worker_busy_ns.object",
        "grammar.batches.object",
        "grammar.stalls.object",
    ),
    (
        "grammar.worker_busy_ns.offset",
        "grammar.batches.offset",
        "grammar.stalls.offset",
    ),
];

/// One dimension's feed-side totals, counted on the collection thread;
/// plain integers bumped inline, published only at a drain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GrammarStreamStats {
    /// Batches flushed onto the worker's queue (or grown locally).
    batches: u64,
    /// Flushes that found the queue full and had to block (collection
    /// out-ran grammar construction).
    stalls: u64,
    /// Wall-clock nanoseconds spent inside `push_batch` for this
    /// dimension.
    busy_ns: u64,
}

/// Per-dimension grammar-stage totals, read at a drain.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct GrammarPipelineStats {
    /// Number of grammar workers the stage runs.
    workers: u64,
    /// One entry per dimension, in stream order.
    streams: [GrammarStreamStats; N],
}

impl GrammarPipelineStats {
    /// Publishes the stage's totals (`grammar.*`) onto `rec`. Call at a
    /// phase boundary.
    pub(crate) fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("grammar.workers", self.workers);
        for (s, (busy, batches, stalls)) in self.streams.iter().zip(COUNTER_NAMES) {
            rec.span(busy, s.busy_ns);
            rec.counter(batches, s.batches);
            rec.counter(stalls, s.stalls);
        }
    }
}

/// One dimension's grammar state on a worker, and the time spent
/// growing it.
#[derive(Debug)]
struct WorkerStream {
    stream: u8,
    seq: Sequitur,
    busy_ns: u64,
}

/// Grows the worker stream owning `stream` by `batch`.
fn grow(streams: &mut [WorkerStream], stream: u8, batch: &[u64]) {
    let slot = streams
        .iter_mut()
        .find(|s| s.stream == stream)
        .expect("batch routed to a worker that does not own its stream");
    let start = Instant::now();
    slot.seq.push_batch(batch);
    slot.busy_ns += elapsed_ns(start);
}

/// What the feed side sends a grammar worker.
#[derive(Debug)]
enum Msg {
    /// The next batch for one stream.
    Batch(u8, Vec<u64>),
    /// Hand the grammars back over the lend channel, then wait for
    /// [`Msg::Return`].
    Lend,
    /// The grammars handed out by the last [`Msg::Lend`].
    Return(Vec<WorkerStream>),
}

/// One worker's inbound lane: its message channel, the buffer-recycling
/// return channel and the lend channel. `tx` is `None` once the worker
/// is known dead.
#[derive(Debug)]
struct Lane {
    tx: Option<SyncSender<Msg>>,
    recycled: Receiver<Vec<u64>>,
    lent: Receiver<Vec<WorkerStream>>,
}

impl Lane {
    /// Ships `batch` for stream `stream`, returning a fresh (recycled
    /// or new) buffer of the same capacity. Stall and batch totals land
    /// in `stats`; a dead worker marks the lane and the batch is
    /// dropped — the panic surfaces at the next drain or join.
    fn ship(&mut self, stream: u8, batch: Vec<u64>, stats: &mut GrammarStreamStats) -> Vec<u64> {
        let capacity = batch.capacity();
        let fresh = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(capacity));
        let Some(tx) = &self.tx else {
            return fresh;
        };
        // Non-blocking first, so a full queue — the worker
        // back-pressuring collection — is observable as a stall before
        // the blocking send parks this thread.
        match tx.try_send(Msg::Batch(stream, batch)) {
            Ok(()) => stats.batches += 1,
            Err(TrySendError::Full(msg)) => {
                stats.stalls += 1;
                match tx.send(msg) {
                    Ok(()) => stats.batches += 1,
                    Err(mpsc::SendError(_)) => self.tx = None,
                }
            }
            Err(TrySendError::Disconnected(_)) => self.tx = None,
        }
        fresh
    }

    /// Borrows the worker's grammars once it has consumed everything
    /// shipped before; `None` when the worker is dead.
    fn lend(&self) -> Option<Vec<WorkerStream>> {
        self.tx.as_ref()?.send(Msg::Lend).ok()?;
        self.lent.recv().ok()
    }

    /// Returns grammars taken by [`Lane::lend`] to their worker.
    fn give_back(&self, streams: Vec<WorkerStream>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Msg::Return(streams));
        }
    }
}

/// Spawns grammar worker `index` owning `streams`; it drains its lane,
/// grows its grammars by each batch, lends them on request, and returns
/// them at shutdown.
fn spawn_worker(index: usize, streams: Vec<WorkerStream>) -> (Lane, JoinHandle<Vec<WorkerStream>>) {
    let (tx, rx) = mpsc::sync_channel::<Msg>(COLUMN_QUEUE_BATCHES);
    let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<u64>>(COLUMN_QUEUE_BATCHES);
    let (lend_tx, lend_rx) = mpsc::sync_channel::<Vec<WorkerStream>>(1);
    let handle = thread::Builder::new()
        .name(format!("orp-grammar-{index}"))
        .spawn(move || {
            let mut streams = streams;
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Batch(stream, mut batch) => {
                        grow(&mut streams, stream, &batch);
                        batch.clear();
                        let _ = recycle_tx.try_send(batch);
                    }
                    Msg::Lend => {
                        if lend_tx.send(std::mem::take(&mut streams)).is_err() {
                            break;
                        }
                    }
                    Msg::Return(lent) => streams = lent,
                }
            }
            streams
        })
        .expect("spawn grammar worker");
    (
        Lane {
            tx: Some(tx),
            recycled: recycle_rx,
            lent: lend_rx,
        },
        handle,
    )
}

/// WHOMP's four dimension streams, grown concurrently: the engine
/// behind [`WhompProfiler`](crate::WhompProfiler).
///
/// Symbols are buffered per dimension in batches of [`TUPLE_BATCH`].
/// The instruction, group and object dimensions grow on the workers —
/// dimension `s` on worker `s % W` — and the offset dimension, or all
/// four with no workers, grows on the collection thread from the same
/// batches. Every read goes through the drain barrier (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Streams {
    /// Batch under construction per dimension; all grow in lockstep.
    pending: [Vec<u64>; N],
    /// The grammars this thread grows; `None` where a worker owns it.
    local: [Option<Sequitur>; N],
    /// The lane of each worker-built dimension.
    route: [usize; N],
    stats: [GrammarStreamStats; N],
    lanes: Vec<Lane>,
    /// `None` once joined (at a worker death or at shutdown).
    workers: Vec<Option<JoinHandle<Vec<WorkerStream>>>>,
    /// The first worker death, reported by every later drain.
    failure: Option<PipelineError>,
}

impl Streams {
    /// Continues `grammars` (in dimension order) on this host's
    /// workers.
    pub(crate) fn dimensions(grammars: [Sequitur; N]) -> Self {
        Self::dimensions_on(grammars, grammar_workers())
    }

    /// Continues `grammars` on `workers` workers (at most one per
    /// worker-built dimension): the offset grammar always grows on the
    /// collection thread.
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    pub(crate) fn dimensions_on(grammars: [Sequitur; N], workers: usize) -> Self {
        let workers = workers.min(OFFSET);
        let mut local: [Option<Sequitur>; N] = std::array::from_fn(|_| None);
        let mut route = [0usize; N];
        let mut per_worker: Vec<Vec<WorkerStream>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, seq) in grammars.into_iter().enumerate() {
            if s < OFFSET && workers > 0 {
                route[s] = s % workers;
                per_worker[s % workers].push(WorkerStream {
                    stream: s as u8,
                    seq,
                    busy_ns: 0,
                });
            } else {
                local[s] = Some(seq);
            }
        }
        let (lanes, workers) = per_worker
            .into_iter()
            .enumerate()
            .map(|(i, streams)| {
                let (lane, handle) = spawn_worker(i, streams);
                (lane, Some(handle))
            })
            .unzip();
        Streams {
            pending: std::array::from_fn(|_| Vec::with_capacity(TUPLE_BATCH)),
            local,
            route,
            stats: [GrammarStreamStats::default(); N],
            lanes,
            workers,
            failure: None,
        }
    }

    /// Appends one symbol per stream, flushing a full batch.
    #[inline]
    pub(crate) fn push(&mut self, symbols: [u64; N]) {
        for (pending, symbol) in self.pending.iter_mut().zip(symbols) {
            pending.push(symbol);
        }
        if self.pending[0].len() >= TUPLE_BATCH {
            self.flush();
        }
    }

    /// Ships the worker-built batches, then grows the local grammars,
    /// so the workers start before this thread's share.
    pub(crate) fn flush(&mut self) {
        for s in 0..N {
            if self.pending[s].is_empty() {
                continue;
            }
            let stats = &mut self.stats[s];
            if let Some(seq) = &mut self.local[s] {
                let start = Instant::now();
                seq.push_batch(&self.pending[s]);
                stats.busy_ns += elapsed_ns(start);
                stats.batches += 1;
                self.pending[s].clear();
            } else {
                let batch = std::mem::take(&mut self.pending[s]);
                self.pending[s] = self.lanes[self.route[s]].ship(s as u8, batch, stats);
            }
        }
    }

    /// The drain barrier: flushes, waits until every worker has
    /// consumed its queue, and runs `f` over the grammars (in stream
    /// order) and the pipeline totals.
    ///
    /// # Errors
    ///
    /// A dead worker, named with its streams — at this drain and every
    /// later one.
    pub(crate) fn lend_grammars<R>(
        &mut self,
        f: impl FnOnce([&Sequitur; N], &GrammarPipelineStats) -> R,
    ) -> Result<R, PipelineError> {
        self.flush();
        self.check()?;
        let lent: Vec<Option<Vec<WorkerStream>>> = self.lanes.iter().map(Lane::lend).collect();
        if let Some(dead) = lent.iter().position(Option::is_none) {
            for (lane, streams) in self.lanes.iter().zip(lent) {
                if let Some(streams) = streams {
                    lane.give_back(streams);
                }
            }
            return Err(self.fail(dead));
        }
        let lent: Vec<Vec<WorkerStream>> = lent.into_iter().flatten().collect();
        let owned = |s: usize| {
            lent[self.route[s]]
                .iter()
                .find(|ws| usize::from(ws.stream) == s)
                .expect("every worker-built stream has one worker stream")
        };
        let mut stats = GrammarPipelineStats {
            workers: self.lanes.len() as u64,
            streams: self.stats,
        };
        for (s, totals) in stats.streams.iter_mut().enumerate() {
            if self.local[s].is_none() {
                totals.busy_ns = owned(s).busy_ns;
            }
        }
        let grammars = std::array::from_fn(|s| match &self.local[s] {
            Some(seq) => seq,
            None => &owned(s).seq,
        });
        let out = f(grammars, &stats);
        for (lane, streams) in self.lanes.iter().zip(lent) {
            lane.give_back(streams);
        }
        Ok(out)
    }

    /// Flushes, shuts the workers down and hands back the grammars (in
    /// stream order).
    ///
    /// # Errors
    ///
    /// A dead worker, named with its streams.
    pub(crate) fn into_grammars(mut self) -> Result<[Sequitur; N], PipelineError> {
        self.flush();
        self.check()?;
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        let mut grammars = std::mem::replace(&mut self.local, std::array::from_fn(|_| None));
        for lane in 0..self.workers.len() {
            let Some(handle) = self.workers[lane].take() else {
                continue;
            };
            match handle.join() {
                Ok(streams) => {
                    for ws in streams {
                        grammars[usize::from(ws.stream)] = Some(ws.seq);
                    }
                }
                Err(payload) => return Err(self.failed(lane, panic_message(payload))),
            }
        }
        Ok(grammars.map(Option::unwrap_or_default))
    }

    fn check(&self) -> Result<(), PipelineError> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// Reaps the dead worker behind `lane` for its panic message.
    fn fail(&mut self, lane: usize) -> PipelineError {
        drop(self.lanes[lane].tx.take());
        let message = match self.workers[lane].take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_message(payload),
            _ => "exited before its grammars were drained".to_owned(),
        };
        self.failed(lane, message)
    }

    /// Records (and returns) the failure of the worker behind `lane`,
    /// naming the streams it owned.
    fn failed(&mut self, lane: usize, message: String) -> PipelineError {
        let owned: Vec<&str> = (0..N)
            .filter(|&s| self.local[s].is_none() && self.route[s] == lane)
            .map(|s| DIMS[s])
            .collect();
        let err = PipelineError {
            worker: format!("grammar worker {lane} ({})", owned.join(", ")),
            message,
        };
        self.failure = Some(err.clone());
        err
    }

    /// Test fault hook: ships the worker owning stream `s` a batch
    /// tagged with a stream nobody owns, which panics that worker.
    #[cfg(test)]
    pub(crate) fn inject_worker_panic(&mut self, s: usize) {
        let mut stats = GrammarStreamStats::default();
        self.lanes[self.route[s]].ship(u8::MAX, vec![0], &mut stats);
    }
}

impl Drop for Streams {
    fn drop(&mut self) {
        // Unblock and reap the workers if `into_grammars` never ran.
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        for handle in self.workers.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}
