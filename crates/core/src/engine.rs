//! The analysis engine (DESIGN.md §7).
//!
//! Every analysis runs one stage graph over bounded channels:
//!
//! ```text
//! generator ──GenMsg──▶ dispatcher ──ShardMsg──▶ K shard minimizers
//! (calling   (bounded)  (routes by   ◀─antichain─ (incremental
//!  thread)               shard key,               subsumption
//!                        reconciles)              per epoch)
//!                            │
//!                            │ released cutsets (bounded)
//!                            ▼
//!                 N quantification workers
//!                 (FT_C models, shared cache,
//!                  pooled kernel workspaces)
//! ```
//!
//! with `K = clamp(threads, 1, 4)` shards and `N = threads` workers.
//! The dispatcher routes each candidate to a shard by a deterministic
//! key of its event set ([`Cutset::shard_key`]); the shards probe and
//! compact independently, and at each epoch watermark the dispatcher
//! reconciles the K per-shard antichains with one batch minimize before
//! releasing, so the released sequence is bitwise-identical for every
//! shard and thread count.
//!
//! The release policy is the only switch ([`AnalysisOptions::streaming`]):
//! *streaming* hands each epoch's minimal cutsets to quantification the
//! moment the epoch completes; *phased* holds them in the dispatcher
//! until the generator channel closes and then feeds the same workers,
//! so generation and quantification never overlap.
//!
//! Backpressure: every channel is bounded, so a slow consumer stalls the
//! producer instead of letting candidates pile up. The watermark rule
//! making early release sound is the generator's epoch contract
//! ([`sdft_mocus::CandidateSink`]): an epoch's candidates can only
//! subsume each other, and `epoch_complete` arrives after the epoch's
//! last delivery — so each epoch is minimized independently and final
//! the moment it completes.
//!
//! Results are bitwise-identical for every thread count and both
//! policies: the candidate multiset is schedule-independent, minimal
//! sets of a multiset are unique, per-cutset quantification is a pure
//! function of the cutset (the [`QuantCache`] stores one canonical
//! solution per model class regardless of which member solved it), and
//! the final assembly re-sorts reports into canonical (order, events)
//! cutset order before the per-horizon summation.

use crate::backend::{CutsetBackend, GenError, GenerationStats};
use crate::canonical::{CacheStats, QuantCache};
use crate::error::CoreError;
use crate::ftc::FtcContext;
use crate::pipeline::{
    quantify_cutset_at_horizons, AnalysisOptions, CutsetReport, FilterShardStats,
};
use crate::quantify::{KernelUsage, QuantifyOptions};
use crate::translate::Translated;
use sdft_ctmc::WorkspacePool;
use sdft_ft::{
    Cutset, CutsetList, EventProbabilities, FaultTree, FilterStats, IncrementalMinimizer,
};
use sdft_mocus::{CandidateSink, MocusError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Generator→dispatcher channel capacity, in delivery batches (a batch
/// holds at most the generator's flush threshold of 512 candidates).
const GEN_CHANNEL_BATCHES: usize = 64;

/// Dispatcher→shard channel capacity, in routed sub-batches.
const SHARD_CHANNEL_BATCHES: usize = 16;

/// Shard→dispatcher reply channel capacity, in finished epochs.
const SHARD_REPLY_EPOCHS: usize = 4;

/// Most shard minimizers the dispatcher runs: subsumption filtering
/// saturates well before quantification does.
const MAX_SHARDS: usize = 4;

/// Cutsets per dispatcher→quantification delivery batch (one channel
/// send and one wakeup per batch instead of per cutset).
const QUANT_BATCH: usize = 256;

/// Dispatcher→quantification channel capacity, in batches. Together
/// with [`QUANT_BATCH`] this bounds minimal cutsets awaiting
/// quantification to 4096.
const QUANT_CHANNEL_BATCHES: usize = 16;

/// What the engine hands back to the pipeline: per-horizon reports in
/// canonical cutset order, plus per-stage statistics.
pub(crate) struct EngineOutput {
    /// One report vector per horizon, in canonical (order, events)
    /// cutset order.
    pub(crate) per_horizon: Vec<Vec<CutsetReport>>,
    pub(crate) gen_stats: GenerationStats,
    /// Subset tests the shard minimizers and the reconciliation
    /// performed (the online arrival order makes this
    /// scheduling-dependent).
    pub(crate) subsumption_comparisons: u64,
    /// Peak cutsets resident between generation and quantification:
    /// live shard minimal sets, plus released cutsets the phased policy
    /// holds.
    pub(crate) peak_pending_cutsets: usize,
    /// Peak models enqueued-or-quantifying downstream of the dispatcher.
    pub(crate) peak_inflight_models: usize,
    pub(crate) cache_stats: CacheStats,
    pub(crate) kernel_usage: KernelUsage,
    /// Wall-clock span of the generation stage.
    pub(crate) generation_span: Duration,
    /// Wall-clock span of the quantification stage (first cutset
    /// released to the last worker joining).
    pub(crate) quantification_span: Duration,
    /// Stage-seconds the generation and quantification spans overlapped
    /// (zero under the phased policy).
    pub(crate) overlap: Duration,
    /// Time the filter stage spent working (not blocked on the
    /// generator channel), summed over the dispatcher and every shard.
    pub(crate) filter_busy: Duration,
    /// Time quantification workers spent solving models, summed over
    /// workers (not blocked on the dispatcher channel).
    pub(crate) quant_busy: Duration,
    /// Per-shard filter counters, indexed by shard (one entry per shard
    /// minimizer the filter stage ran).
    pub(crate) filter_shard_stats: Vec<FilterShardStats>,
}

/// A bounded MPMC channel on `Mutex` + `Condvar` (std only). `send`
/// blocks while full (backpressure), `recv` blocks while empty;
/// `close` ends the stream after draining, `abort` ends it immediately
/// and discards queued items (error propagation).
struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
    aborted: bool,
}

impl<T> Channel<T> {
    fn new(capacity: usize) -> Self {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                aborted: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Returns `false` when the channel was aborted (the item is
    /// dropped); the caller should unwind.
    fn send(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("channel poisoned");
        loop {
            if state.aborted {
                return false;
            }
            if state.queue.len() < self.capacity {
                break;
            }
            state = self.not_full.wait(state).expect("channel poisoned");
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// `None` once the channel is closed and drained, or aborted.
    fn recv(&self) -> Option<T> {
        let mut state = self.state.lock().expect("channel poisoned");
        loop {
            if state.aborted {
                return None;
            }
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("channel poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("channel poisoned").closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    fn abort(&self) {
        let mut state = self.state.lock().expect("channel poisoned");
        state.aborted = true;
        state.queue.clear();
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Generator-side messages: candidate batches and epoch watermarks.
enum GenMsg {
    Batch(u32, Vec<Cutset>),
    EpochComplete(u32),
}

/// Adapts the generator's [`CandidateSink`] to the bounded channel; a
/// failed send (pipeline aborted) stops generation promptly.
struct ChannelSink<'a> {
    channel: &'a Channel<GenMsg>,
    candidates: &'a AtomicU64,
}

impl CandidateSink for ChannelSink<'_> {
    fn deliver(&self, epoch: u32, batch: &mut Vec<Cutset>) -> bool {
        self.candidates
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.channel
            .send(GenMsg::Batch(epoch, std::mem::take(batch)))
    }

    fn epoch_complete(&self, epoch: u32) -> bool {
        self.channel.send(GenMsg::EpochComplete(epoch))
    }
}

/// Dispatcher→shard messages: a shard's slice of one delivery batch,
/// and the epoch watermark requesting the shard's finished antichain.
enum ShardMsg {
    Batch(u32, Vec<Cutset>),
    Complete(u32),
}

/// A shard's answer to a watermark: the epoch, its minimal antichain in
/// canonical (order, events) order, and the epoch's filter counters.
type ShardReply = (u32, Vec<Cutset>, FilterStats);

struct FilterOutput {
    comparisons: u64,
    peak_pending: usize,
    first_release: Option<Instant>,
    /// Time spent processing messages (routing, reconciling, releasing),
    /// i.e. not blocked waiting on the generator channel; summed over
    /// the dispatcher and the shard workers. Includes any backpressure
    /// wait while handing batches downstream.
    busy: Duration,
    /// Per-shard counters, aggregated over epochs.
    shard_stats: Vec<FilterShardStats>,
}

/// Live progress counters, shared by all stages. Updated with relaxed
/// increments whether or not a monitor is attached (batch-granular on
/// the generator side, per-model elsewhere — unmeasurable overhead).
#[derive(Default)]
struct Progress {
    candidates: AtomicU64,
    finalized: AtomicU64,
    quantified: AtomicU64,
}

/// First-error slot: quantification failures race, the smallest
/// (order, events) cutset key wins so the reported error is
/// deterministic regardless of scheduling.
type ErrorSlot = Mutex<Option<(Cutset, CoreError)>>;

fn record_error(slot: &ErrorSlot, cutset: Cutset, error: CoreError) {
    let mut guard = slot.lock().expect("error slot poisoned");
    let replace = match &*guard {
        None => true,
        Some((held, _)) => (cutset.order(), cutset.events()) < (held.order(), held.events()),
    };
    if replace {
        *guard = Some((cutset, error));
    }
}

/// Everything a quantification worker needs besides the cutset itself.
struct QuantContext<'a> {
    tree: &'a FaultTree,
    ctx: &'a FtcContext,
    horizons: &'a [f64],
    qopts: &'a QuantifyOptions,
    cache: Option<&'a QuantCache>,
    probs_per_horizon: &'a [EventProbabilities],
    gen_tx: &'a Channel<GenMsg>,
    errors: &'a ErrorSlot,
}

/// Hands released minimal cutsets to the quantification channel in
/// [`QUANT_BATCH`] chunks, mapping ids back to the original tree and
/// keeping the inflight-model accounting. Under the phased policy it
/// holds them until [`Releaser::close`], which runs once generation has
/// ended.
struct Releaser<'a> {
    quant_tx: &'a Channel<Vec<Cutset>>,
    translated: &'a Translated,
    progress: &'a Progress,
    inflight: &'a AtomicUsize,
    peak_inflight: &'a AtomicUsize,
    /// `Some` under the phased policy: released cutsets (original ids)
    /// waiting for generation to end.
    held: Option<Vec<Cutset>>,
}

impl Releaser<'_> {
    /// `false` when the pipeline was aborted mid-release; the caller
    /// should unwind.
    fn release(&mut self, sorted: Vec<Cutset>, out: &mut FilterOutput) -> bool {
        self.progress
            .finalized
            .fetch_add(sorted.len() as u64, Ordering::Relaxed);
        let translated = self.translated;
        let cutsets = sorted
            .into_iter()
            .map(|cutset| translated.cutset_into_original(cutset));
        match &mut self.held {
            Some(held) => {
                held.extend(cutsets);
                true
            }
            None => self.send(cutsets, out),
        }
    }

    /// Cutsets the phased policy currently holds.
    fn held(&self) -> usize {
        self.held.as_ref().map_or(0, Vec::len)
    }

    /// End of generation: hand over whatever the phased policy held and
    /// close the quantification channel. `false` when aborted.
    fn close(&mut self, out: &mut FilterOutput) -> bool {
        if let Some(held) = self.held.take() {
            if !self.send(held, out) {
                return false;
            }
        }
        self.quant_tx.close();
        true
    }

    fn send(&self, cutsets: impl IntoIterator<Item = Cutset>, out: &mut FilterOutput) -> bool {
        let mut batch: Vec<Cutset> = Vec::with_capacity(QUANT_BATCH);
        for cutset in cutsets {
            batch.push(cutset);
            if batch.len() == QUANT_BATCH
                && !self.send_batch(
                    std::mem::replace(&mut batch, Vec::with_capacity(QUANT_BATCH)),
                    out,
                )
            {
                return false;
            }
        }
        batch.is_empty() || self.send_batch(batch, out)
    }

    fn send_batch(&self, batch: Vec<Cutset>, out: &mut FilterOutput) -> bool {
        out.first_release.get_or_insert_with(Instant::now);
        let n = batch.len();
        let now = self.inflight.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_inflight.fetch_max(now, Ordering::Relaxed);
        if self.quant_tx.send(batch) {
            return true;
        }
        self.inflight.fetch_sub(n, Ordering::Relaxed);
        false
    }
}

/// Merge the per-shard antichains of one epoch into the epoch's minimal
/// cutsets. Each piece is internally minimal and canonically sorted;
/// when at most one is non-empty the union already is the answer.
/// Otherwise a cross-shard set can subsume another shard's set (the
/// shard key is order- and content-sensitive, so a subset and its
/// superset generally land on different shards) and a batch minimize
/// over the concatenation settles it. The result is identical to
/// minimizing the epoch's full candidate multiset in one place: every
/// truly minimal set survives its own shard (nothing in its shard beats
/// it, duplicates co-locate by key), so the union contains the answer,
/// and the reconcile pass removes exactly the cross-shard casualties.
fn reconcile(pieces: Vec<Vec<Cutset>>, threads: usize) -> (Vec<Cutset>, u64) {
    let non_empty = pieces.iter().filter(|p| !p.is_empty()).count();
    if non_empty <= 1 {
        let piece = pieces
            .into_iter()
            .find(|p| !p.is_empty())
            .unwrap_or_default();
        return (piece, 0);
    }
    let mut union: Vec<Cutset> = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    for piece in pieces {
        union.extend(piece);
    }
    let (minimal, comparisons) = CutsetList::from_vec(union).minimize_with_stats(threads);
    (minimal.into_iter().collect(), comparisons)
}

/// The filter stage on the dispatcher thread: route each candidate to
/// one of the `shard_pending.len()` shard workers by
/// [`Cutset::shard_key`]; at an epoch watermark forward the watermark
/// to every shard, collect the per-shard antichains in shard order,
/// reconcile them ([`reconcile`]) and release the result. Determinism:
/// the shard key is a pure function of the event set, each shard's
/// antichain is the unique minimal antichain of its sub-multiset
/// (arrival order is irrelevant), and reconciliation is a canonical
/// batch minimize — so the released sequence is bitwise-identical for
/// every shard count.
fn dispatch(
    gen_rx: &Channel<GenMsg>,
    releaser: &mut Releaser<'_>,
    shard_pending: &[AtomicUsize],
) -> FilterOutput {
    let k = shard_pending.len();
    let mut out = FilterOutput {
        comparisons: 0,
        peak_pending: 0,
        first_release: None,
        busy: Duration::ZERO,
        shard_stats: vec![FilterShardStats::default(); k],
    };
    let inputs: Vec<Channel<ShardMsg>> = (0..k)
        .map(|_| Channel::new(SHARD_CHANNEL_BATCHES))
        .collect();
    let replies: Vec<Channel<ShardReply>> =
        (0..k).map(|_| Channel::new(SHARD_REPLY_EPOCHS)).collect();
    let pending = AtomicUsize::new(0);
    let peak_pending = AtomicUsize::new(0);
    // One epoch's minimal cutsets from its shard antichains, with the
    // residency peak taken while the union is held.
    let settle = |pieces: Vec<Vec<Cutset>>, held: usize, out: &mut FilterOutput| {
        let union_len: usize = pieces.iter().map(Vec::len).sum();
        peak_pending.fetch_max(
            pending.load(Ordering::Relaxed) + union_len + held,
            Ordering::Relaxed,
        );
        let (minimal, comparisons) = reconcile(pieces, k);
        out.comparisons += comparisons;
        minimal
    };
    let workers_busy = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let (input, reply, occupancy) = (&inputs[i], &replies[i], &shard_pending[i]);
                let (pending, peak_pending) = (&pending, &peak_pending);
                std::thread::Builder::new()
                    .name(format!("sdft-shard-{i}"))
                    .spawn_scoped(scope, move || {
                        shard_worker(input, reply, occupancy, pending, peak_pending)
                    })
                    .expect("spawn shard worker")
            })
            .collect();

        let dispatched = 'dispatch: {
            let mut route: Vec<Vec<Cutset>> = (0..k).map(|_| Vec::new()).collect();
            while let Some(msg) = gen_rx.recv() {
                let work_begin = Instant::now();
                let ok = match msg {
                    GenMsg::Batch(epoch, cutsets) => {
                        for cutset in cutsets {
                            route[cutset.shard_key(k)].push(cutset);
                        }
                        inputs.iter().zip(route.iter_mut()).all(|(input, bucket)| {
                            bucket.is_empty()
                                || input.send(ShardMsg::Batch(epoch, std::mem::take(bucket)))
                        })
                    }
                    GenMsg::EpochComplete(epoch) => 'settle: {
                        for input in &inputs {
                            if !input.send(ShardMsg::Complete(epoch)) {
                                break 'settle false;
                            }
                        }
                        // Each worker answers watermarks in input order,
                        // so the next reply on shard i's channel is for
                        // this epoch.
                        let mut pieces: Vec<Vec<Cutset>> = Vec::with_capacity(k);
                        for (i, reply) in replies.iter().enumerate() {
                            let Some((e, sorted, stats)) = reply.recv() else {
                                break 'settle false;
                            };
                            debug_assert_eq!(e, epoch);
                            out.shard_stats[i].absorb(stats);
                            pieces.push(sorted);
                        }
                        let minimal = settle(pieces, releaser.held(), &mut out);
                        releaser.release(minimal, &mut out)
                    }
                };
                out.busy += work_begin.elapsed();
                if !ok {
                    break 'dispatch false;
                }
            }
            // Channel closed (or aborted): leftover epochs only exist
            // on the abort path. Close the shard inputs so the workers
            // flush whatever they still hold, then drain their replies
            // grouped by epoch and settle each in epoch order.
            let drain_begin = Instant::now();
            for input in &inputs {
                input.close();
            }
            let mut leftovers: HashMap<u32, Vec<Vec<Cutset>>> = HashMap::new();
            for (i, reply) in replies.iter().enumerate() {
                while let Some((epoch, sorted, stats)) = reply.recv() {
                    out.shard_stats[i].absorb(stats);
                    leftovers.entry(epoch).or_default().push(sorted);
                }
            }
            let mut rest: Vec<(u32, Vec<Vec<Cutset>>)> = leftovers.into_iter().collect();
            rest.sort_unstable_by_key(|&(epoch, _)| epoch);
            let mut ok = true;
            for (_, pieces) in rest {
                let minimal = settle(pieces, releaser.held(), &mut out);
                ok = ok && releaser.release(minimal, &mut out);
            }
            out.busy += drain_begin.elapsed();
            // Not filter work: under the phased policy this hand-over
            // waits on the quantification workers for the whole list.
            ok && releaser.close(&mut out)
        };
        if !dispatched {
            // Unblock any worker stuck sending a reply before joining.
            for input in &inputs {
                input.abort();
            }
            for reply in &replies {
                reply.abort();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker does not panic"))
            .sum::<Duration>()
    });
    out.busy += workers_busy;
    out.peak_pending = peak_pending.into_inner();
    out
}

/// One shard worker: per-epoch incremental minimizers over the
/// candidates routed to this shard, answering each watermark with the
/// epoch's finished antichain. Returns its busy time.
fn shard_worker(
    input: &Channel<ShardMsg>,
    reply: &Channel<ShardReply>,
    occupancy: &AtomicUsize,
    pending: &AtomicUsize,
    peak_pending: &AtomicUsize,
) -> Duration {
    let mut minimizers: HashMap<u32, IncrementalMinimizer> = HashMap::new();
    let mut live = 0usize;
    let mut busy = Duration::ZERO;
    let track = |live: usize, delta_before: usize, delta_after: usize| {
        occupancy.store(live, Ordering::Relaxed);
        let total = if delta_after >= delta_before {
            let grow = delta_after - delta_before;
            pending.fetch_add(grow, Ordering::Relaxed) + grow
        } else {
            let shrink = delta_before - delta_after;
            pending
                .fetch_sub(shrink, Ordering::Relaxed)
                .saturating_sub(shrink)
        };
        peak_pending.fetch_max(total, Ordering::Relaxed);
    };
    while let Some(msg) = input.recv() {
        let work_begin = Instant::now();
        match msg {
            ShardMsg::Batch(epoch, cutsets) => {
                let minimizer = minimizers.entry(epoch).or_default();
                let before = minimizer.len();
                for cutset in cutsets {
                    minimizer.absorb(cutset);
                }
                let after = minimizer.len();
                live = live - before + after;
                track(live, before, after);
                busy += work_begin.elapsed();
            }
            ShardMsg::Complete(epoch) => {
                // A shard that saw no candidates for the epoch still
                // answers the watermark (with an empty antichain) so
                // the dispatcher's shard-order collection stays lined
                // up.
                let minimizer = minimizers.remove(&epoch).unwrap_or_default();
                let held = minimizer.len();
                live -= held;
                track(live, held, 0);
                let (sorted, stats) = minimizer.finish();
                busy += work_begin.elapsed();
                if !reply.send((epoch, sorted, stats)) {
                    return busy;
                }
            }
        }
    }
    // Input closed with epochs still open: the pipeline is tearing
    // down. Flush them (sorted by epoch) so the dispatcher's drain sees
    // every epoch exactly once per shard.
    let mut rest: Vec<(u32, IncrementalMinimizer)> = minimizers.into_iter().collect();
    rest.sort_unstable_by_key(|&(epoch, _)| epoch);
    for (epoch, minimizer) in rest {
        let flush_begin = Instant::now();
        let (sorted, stats) = minimizer.finish();
        busy += flush_begin.elapsed();
        if !reply.send((epoch, sorted, stats)) {
            return busy;
        }
    }
    reply.close();
    busy
}

/// One quantification worker: drain cutsets, build and solve their
/// models against all horizons, abort the whole pipeline on error.
fn quant_stage(
    quant_rx: &Channel<Vec<Cutset>>,
    qctx: &QuantContext<'_>,
    pool: &WorkspacePool,
    progress: &Progress,
    inflight: &AtomicUsize,
) -> (Vec<Vec<CutsetReport>>, KernelUsage, Duration) {
    let mut workspace = pool.acquire();
    let mut local: Vec<Vec<CutsetReport>> = Vec::new();
    let mut usage = KernelUsage::default();
    let mut busy = Duration::ZERO;
    'drain: while let Some(batch) = quant_rx.recv() {
        let work_begin = Instant::now();
        for cutset in batch {
            let quantified = quantify_cutset_at_horizons(
                qctx.tree,
                qctx.ctx,
                &cutset,
                qctx.horizons,
                qctx.qopts,
                qctx.cache,
                qctx.probs_per_horizon,
                &mut workspace,
            );
            inflight.fetch_sub(1, Ordering::Relaxed);
            match quantified {
                Ok((reports, u)) => {
                    usage.absorb(u);
                    local.push(reports);
                    progress.quantified.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    record_error(qctx.errors, cutset, error);
                    // Stall everything upstream: the generator's next
                    // send fails, the dispatcher's next recv/send fails.
                    quant_rx.abort();
                    qctx.gen_tx.abort();
                    busy += work_begin.elapsed();
                    break 'drain;
                }
            }
        }
        busy += work_begin.elapsed();
    }
    pool.release(workspace);
    (local, usage, busy)
}

/// Run the analysis: generation on the calling thread, the dispatcher
/// with its shard workers, `threads` quantification workers, and (when
/// enabled) a progress monitor — all joined before returning.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    tree: &FaultTree,
    translated: &Translated,
    static_probs: &EventProbabilities,
    backend: &dyn CutsetBackend,
    exact_probe: &[EventProbabilities],
    horizons: &[f64],
    options: &AnalysisOptions,
    probs_per_horizon: &[EventProbabilities],
    ctx: &FtcContext,
) -> Result<EngineOutput, CoreError> {
    let threads = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        options.threads
    };
    let qopts = QuantifyOptions {
        horizon: horizons[0],
        epsilon: options.epsilon,
        max_states: options.max_chain_states,
        treatment: options.treatment,
        steady_state_detection: options.steady_state_detection,
    };
    let shards = threads.clamp(1, MAX_SHARDS);
    let shard_pending: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
    let cache = options.cache.then(QuantCache::new);
    let pool = WorkspacePool::new();
    let gen_channel: Channel<GenMsg> = Channel::new(GEN_CHANNEL_BATCHES);
    let quant_channel: Channel<Vec<Cutset>> = Channel::new(QUANT_CHANNEL_BATCHES);
    let progress = Progress::default();
    let inflight = AtomicUsize::new(0);
    let peak_inflight = AtomicUsize::new(0);
    let errors: ErrorSlot = Mutex::new(None);
    let monitor_done = (Mutex::new(false), Condvar::new());
    let qctx = QuantContext {
        tree,
        ctx,
        horizons,
        qopts: &qopts,
        cache: cache.as_ref(),
        probs_per_horizon,
        gen_tx: &gen_channel,
        errors: &errors,
    };

    let pipeline_start = Instant::now();
    let (gen_result, generation_span, filter_out, worker_outputs, quant_end) =
        std::thread::scope(|scope| {
            let dispatcher = std::thread::Builder::new()
                .name("sdft-filter".into())
                .spawn_scoped(scope, || {
                    let mut releaser = Releaser {
                        quant_tx: &quant_channel,
                        translated,
                        progress: &progress,
                        inflight: &inflight,
                        peak_inflight: &peak_inflight,
                        held: (!options.streaming).then(Vec::new),
                    };
                    dispatch(&gen_channel, &mut releaser, &shard_pending)
                })
                .expect("spawn dispatcher");
            let quant_handles: Vec<_> = (0..threads)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("sdft-quant-{i}"))
                        .spawn_scoped(scope, || {
                            quant_stage(&quant_channel, &qctx, &pool, &progress, &inflight)
                        })
                        .expect("spawn quant worker")
                })
                .collect();
            if let Some(interval) = options.progress {
                let monitor_done = &monitor_done;
                let progress = &progress;
                let cache = cache.as_ref();
                let shard_pending = &shard_pending;
                scope.spawn(move || {
                    let (lock, condvar) = monitor_done;
                    let mut done = lock.lock().expect("monitor flag poisoned");
                    loop {
                        let (guard, _) = condvar
                            .wait_timeout(done, interval)
                            .expect("monitor flag poisoned");
                        done = guard;
                        if *done {
                            break;
                        }
                        let stats = cache.map(QuantCache::stats).unwrap_or_default();
                        let consultations = stats.hits + stats.misses;
                        let rate = if consultations == 0 {
                            0.0
                        } else {
                            100.0 * stats.hits as f64 / consultations as f64
                        };
                        let occupancy: Vec<usize> = shard_pending
                            .iter()
                            .map(|p| p.load(Ordering::Relaxed))
                            .collect();
                        eprintln!(
                            "progress: {} candidates, {} cutsets finalized, \
                             {} models quantified, cache hit rate {rate:.1}%, \
                             shard occupancy {occupancy:?}",
                            progress.candidates.load(Ordering::Relaxed),
                            progress.finalized.load(Ordering::Relaxed),
                            progress.quantified.load(Ordering::Relaxed),
                        );
                    }
                });
            }

            // Generation runs on the calling thread (its own worker pool
            // lives inside the backend).
            let sink = ChannelSink {
                channel: &gen_channel,
                candidates: &progress.candidates,
            };
            let gen_start = Instant::now();
            let gen_result = backend.generate(&translated.tree, static_probs, exact_probe, &sink);
            let generation_span = gen_start.elapsed();
            if gen_result.is_ok() {
                gen_channel.close();
            } else {
                // Real generation failure: tear the pipeline down. (On
                // Aborted the teardown already happened downstream.)
                gen_channel.abort();
                quant_channel.abort();
            }

            let filter_out = dispatcher.join().expect("dispatcher does not panic");
            let worker_outputs: Vec<(Vec<Vec<CutsetReport>>, KernelUsage, Duration)> =
                quant_handles
                    .into_iter()
                    .map(|h| h.join().expect("quant worker does not panic"))
                    .collect();
            let quant_end = Instant::now();

            *monitor_done.0.lock().expect("monitor flag poisoned") = true;
            monitor_done.1.notify_all();

            (
                gen_result,
                generation_span,
                filter_out,
                worker_outputs,
                quant_end,
            )
        });
    let pipeline_span = pipeline_start.elapsed();

    // Error priority: a real generation error (budget, invalid cutoff)
    // outranks downstream failures; `Aborted` means the cause lives in
    // the error slot (deterministically the smallest failing cutset).
    let quant_error = errors
        .into_inner()
        .expect("error slot poisoned")
        .map(|(_, error)| error);
    let gen_stats = match gen_result {
        Ok(stats) => {
            if let Some(error) = quant_error {
                return Err(error);
            }
            stats
        }
        Err(GenError::Aborted) => {
            return Err(quant_error.unwrap_or_else(|| MocusError::Aborted.into()));
        }
        Err(GenError::Failed(error)) => return Err(error),
    };

    // Deterministic final assembly: reports arrive in scheduling order,
    // the canonical (order, events) sort restores one fixed order (the
    // translation keeps basic-event ids monotone, so original-id order
    // equals translated-id order).
    let mut kernel_usage = KernelUsage::default();
    let mut quant_busy = Duration::ZERO;
    for (_, usage, busy) in &worker_outputs {
        kernel_usage.absorb(*usage);
        quant_busy += *busy;
    }
    let mut items: Vec<Vec<CutsetReport>> = worker_outputs
        .into_iter()
        .flat_map(|(local, _, _)| local)
        .collect();
    items.sort_unstable_by(|a, b| {
        let (ca, cb) = (&a[0].cutset, &b[0].cutset);
        ca.order()
            .cmp(&cb.order())
            .then_with(|| ca.events().cmp(cb.events()))
    });
    let mut per_horizon: Vec<Vec<CutsetReport>> = (0..horizons.len())
        .map(|_| Vec::with_capacity(items.len()))
        .collect();
    for reports in items {
        debug_assert_eq!(reports.len(), horizons.len());
        for (h, report) in reports.into_iter().enumerate() {
            per_horizon[h].push(report);
        }
    }

    let quantification_span = filter_out
        .first_release
        .map_or(Duration::ZERO, |first| quant_end.duration_since(first));
    Ok(EngineOutput {
        per_horizon,
        gen_stats,
        subsumption_comparisons: filter_out.comparisons,
        peak_pending_cutsets: filter_out.peak_pending,
        peak_inflight_models: peak_inflight.into_inner(),
        cache_stats: cache.as_ref().map(QuantCache::stats).unwrap_or_default(),
        kernel_usage,
        generation_span,
        quantification_span,
        overlap: (generation_span + quantification_span).saturating_sub(pipeline_span),
        filter_busy: filter_out.busy,
        quant_busy,
        filter_shard_stats: filter_out.shard_stats,
    })
}
