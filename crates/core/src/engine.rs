//! The analysis engine (DESIGN.md §7).
//!
//! Every analysis runs one stage graph over bounded channels:
//!
//! ```text
//! generator ──GenMsg──▶ dispatcher
//! (calling   (bounded)  (one candidate buffer per open epoch,
//!  thread)               batch-minimized as it grows and at the
//!                        epoch's watermark)
//!                            │
//!                            │ released cutsets (bounded)
//!                            ▼
//!                 N quantification workers
//!                 (FT_C models, shared cache,
//!                  pooled kernel workspaces)
//! ```
//!
//! with `N = threads` workers. The dispatcher appends each delivery to
//! its epoch's buffer and re-minimizes the buffer with
//! [`CutsetList::minimize_with_stats`] whenever it reaches twice its
//! last minimal size, and at least 4096 (see [`EpochBuffer`]); at the
//! epoch watermark it minimizes the buffer once more and releases it. The released
//! sequence is the canonical (order, events) minimal antichain of the
//! epoch's candidates, whatever their arrival order.
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
use sdft_ft::{Cutset, CutsetList, EventProbabilities, FaultTree};
use sdft_mocus::{CandidateSink, MocusError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Generator→dispatcher channel capacity, in delivery batches (a batch
/// holds at most the generator's flush threshold of 512 candidates).
const GEN_CHANNEL_BATCHES: usize = 64;

/// Cutsets per dispatcher→quantification delivery batch (one channel
/// send and one wakeup per batch instead of per cutset).
const QUANT_BATCH: usize = 256;

/// Dispatcher→quantification channel capacity, in batches. Together
/// with [`QUANT_BATCH`] this bounds minimal cutsets awaiting
/// quantification to 4096.
const QUANT_CHANNEL_BATCHES: usize = 16;

/// Smallest length at which an epoch buffer is re-minimized.
const MIN_BUFFER_LIMIT: usize = 4096;

/// What the engine hands back to the pipeline: per-horizon reports in
/// canonical cutset order, plus per-stage statistics.
pub(crate) struct EngineOutput {
    /// One report vector per horizon, in canonical (order, events)
    /// cutset order.
    pub(crate) per_horizon: Vec<Vec<CutsetReport>>,
    pub(crate) gen_stats: GenerationStats,
    /// Peak cutsets resident between generation and quantification:
    /// buffered candidates of open epochs, plus released cutsets the
    /// phased policy holds.
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
    /// Time the dispatcher spent buffering, minimizing and releasing
    /// candidates: not blocked on the generator channel, nor on a full
    /// quantification channel.
    pub(crate) filter_busy: Duration,
    /// Time quantification workers spent solving models, summed over
    /// workers (not blocked on the dispatcher channel).
    pub(crate) quant_busy: Duration,
    /// The filter's counters.
    pub(crate) filter_stats: FilterShardStats,
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
    fn deliver(&mut self, epoch: u32, batch: &mut Vec<Cutset>) -> bool {
        self.candidates
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.channel
            .send(GenMsg::Batch(epoch, std::mem::take(batch)))
    }

    fn epoch_complete(&mut self, epoch: u32) -> bool {
        self.channel.send(GenMsg::EpochComplete(epoch))
    }
}

struct FilterOutput {
    peak_pending: usize,
    first_release: Option<Instant>,
    /// Time spent buffering, minimizing and releasing candidates:
    /// neither blocked on the generator channel nor blocked handing
    /// batches to a full quantification channel.
    busy: Duration,
    stats: FilterShardStats,
}

/// Live progress counters, shared by all stages. Updated with relaxed
/// increments whether or not a monitor is attached (batch-granular on
/// the generator side, per-model elsewhere — unmeasurable overhead).
#[derive(Default)]
struct Progress {
    candidates: AtomicU64,
    /// Candidates the filter buffers over all open epochs, plus the
    /// cutsets the phased policy holds.
    pending: AtomicUsize,
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
    /// When the first batch went to quantification.
    first_release: Option<Instant>,
    /// Time spent in quantification-channel sends: almost all of it
    /// blocked on a full channel, so it is not filter work.
    blocked: Duration,
}

impl Releaser<'_> {
    /// `false` when the pipeline was aborted mid-release; the caller
    /// should unwind.
    fn release(&mut self, sorted: Vec<Cutset>) -> bool {
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
            None => self.send(cutsets),
        }
    }

    /// Cutsets the phased policy currently holds.
    fn held(&self) -> usize {
        self.held.as_ref().map_or(0, Vec::len)
    }

    /// End of generation: hand over whatever the phased policy held and
    /// close the quantification channel (a no-op once it is aborted).
    fn close(&mut self) {
        if let Some(held) = self.held.take() {
            self.send(held);
        }
        self.quant_tx.close();
    }

    fn send(&mut self, cutsets: impl IntoIterator<Item = Cutset>) -> bool {
        let mut batch: Vec<Cutset> = Vec::with_capacity(QUANT_BATCH);
        for cutset in cutsets {
            batch.push(cutset);
            if batch.len() == QUANT_BATCH
                && !self.send_batch(std::mem::replace(
                    &mut batch,
                    Vec::with_capacity(QUANT_BATCH),
                ))
            {
                return false;
            }
        }
        batch.is_empty() || self.send_batch(batch)
    }

    fn send_batch(&mut self, batch: Vec<Cutset>) -> bool {
        let begin = Instant::now();
        self.first_release.get_or_insert(begin);
        let n = batch.len();
        let now = self.inflight.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_inflight.fetch_max(now, Ordering::Relaxed);
        let sent = self.quant_tx.send(batch);
        self.blocked += begin.elapsed();
        if !sent {
            self.inflight.fetch_sub(n, Ordering::Relaxed);
        }
        sent
    }
}

/// One open epoch's candidates. Deliveries are appended unfiltered;
/// once the buffer reaches `max(MIN_BUFFER_LIMIT, 2 × its length after
/// the last minimize)` it is re-minimized in place. The buffer thus
/// holds at most twice the minimal sets found so far (or
/// [`MIN_BUFFER_LIMIT`]) plus one delivery, and every candidate takes
/// part in amortized O(1) minimize passes.
struct EpochBuffer {
    cutsets: Vec<Cutset>,
    /// Length at which the buffer is next re-minimized.
    limit: usize,
}

impl EpochBuffer {
    fn new() -> Self {
        EpochBuffer {
            cutsets: Vec::new(),
            limit: MIN_BUFFER_LIMIT,
        }
    }

    /// Replace the buffer by its minimal antichain in canonical
    /// (order, events) order, counting the subset tests and rejects
    /// into `stats`; returns the candidates removed.
    fn minimize(&mut self, stats: &mut FilterShardStats) -> usize {
        let before = self.cutsets.len();
        let (minimal, probes) =
            CutsetList::from_vec(std::mem::take(&mut self.cutsets)).minimize_with_stats();
        self.cutsets = minimal.into_iter().collect();
        self.limit = (2 * self.cutsets.len()).max(MIN_BUFFER_LIMIT);
        let removed = before - self.cutsets.len();
        stats.probes += probes;
        stats.rejects += removed as u64;
        removed
    }
}

/// The filter stage's state on the dispatcher thread: one
/// [`EpochBuffer`] per open epoch, and the filter's counters.
#[derive(Default)]
struct Filter {
    epochs: HashMap<u32, EpochBuffer>,
    /// Candidates buffered over all open epochs.
    buffered: usize,
    /// Peak of `buffered` plus the cutsets the phased policy holds,
    /// sampled before every minimize, when a buffer is at its longest.
    peak_pending: usize,
    stats: FilterShardStats,
}

impl Filter {
    /// Append one delivery to its epoch's buffer, re-minimizing the
    /// buffer once it reaches its limit. `held` is what the releaser
    /// holds (for the residency peak).
    fn absorb(&mut self, epoch: u32, batch: Vec<Cutset>, held: usize) {
        self.stats.offered += batch.len() as u64;
        self.buffered += batch.len();
        let buffer = self.epochs.entry(epoch).or_insert_with(EpochBuffer::new);
        buffer.cutsets.extend(batch);
        if buffer.cutsets.len() >= buffer.limit {
            self.peak_pending = self.peak_pending.max(self.buffered + held);
            self.buffered -= buffer.minimize(&mut self.stats);
        }
    }

    /// Close `epoch`: its minimal cutsets in canonical order.
    fn finish(&mut self, epoch: u32, held: usize) -> Vec<Cutset> {
        let mut buffer = self.epochs.remove(&epoch).unwrap_or_else(EpochBuffer::new);
        self.peak_pending = self.peak_pending.max(self.buffered + held);
        self.buffered -= buffer.cutsets.len();
        buffer.minimize(&mut self.stats);
        buffer.cutsets
    }
}

/// The filter stage on the dispatcher thread: buffer each delivery in
/// its epoch's [`EpochBuffer`], and at an epoch watermark release the
/// epoch's minimal cutsets. Determinism: minimal sets of a multiset are
/// unique and [`CutsetList::minimize_with_stats`] returns them in
/// canonical order, so the released sequence does not depend on how
/// deliveries arrive or when buffers were re-minimized.
fn dispatch(gen_rx: &Channel<GenMsg>, releaser: &mut Releaser<'_>) -> FilterOutput {
    let mut filter = Filter::default();
    let mut busy = Duration::ZERO;
    let mut ok = true;
    while let Some(msg) = gen_rx.recv() {
        let begin = Instant::now();
        let blocked = releaser.blocked;
        ok = match msg {
            GenMsg::Batch(epoch, cutsets) => {
                filter.absorb(epoch, cutsets, releaser.held());
                true
            }
            GenMsg::EpochComplete(epoch) => {
                let minimal = filter.finish(epoch, releaser.held());
                releaser.release(minimal)
            }
        };
        releaser
            .progress
            .pending
            .store(filter.buffered + releaser.held(), Ordering::Relaxed);
        busy += begin.elapsed().saturating_sub(releaser.blocked - blocked);
        if !ok {
            break;
        }
    }
    if ok {
        // Channel closed (or aborted). A backend completes every epoch
        // before it returns, so open epochs only remain on the abort
        // path; settle them in epoch order all the same, so that a
        // missed watermark cannot drop cutsets.
        let begin = Instant::now();
        let blocked = releaser.blocked;
        let mut open: Vec<u32> = filter.epochs.keys().copied().collect();
        open.sort_unstable();
        let settled = open.into_iter().all(|epoch| {
            let minimal = filter.finish(epoch, releaser.held());
            releaser.release(minimal)
        });
        if settled {
            releaser.close();
        }
        busy += begin.elapsed().saturating_sub(releaser.blocked - blocked);
    }
    FilterOutput {
        peak_pending: filter.peak_pending,
        first_release: releaser.first_release,
        busy,
        stats: filter.stats,
    }
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

/// Run the analysis: generation on the calling thread, the dispatcher,
/// `threads` quantification workers, and (when enabled) a progress
/// monitor — all joined before returning.
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
                        first_release: None,
                        blocked: Duration::ZERO,
                    };
                    dispatch(&gen_channel, &mut releaser)
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
                        eprintln!(
                            "progress: {} candidates, {} pending in the filter, \
                             {} cutsets finalized, {} models quantified, \
                             cache hit rate {rate:.1}%",
                            progress.candidates.load(Ordering::Relaxed),
                            progress.pending.load(Ordering::Relaxed),
                            progress.finalized.load(Ordering::Relaxed),
                            progress.quantified.load(Ordering::Relaxed),
                        );
                    }
                });
            }

            // Generation runs on the calling thread.
            let mut sink = ChannelSink {
                channel: &gen_channel,
                candidates: &progress.candidates,
            };
            let gen_start = Instant::now();
            let gen_result =
                backend.generate(&translated.tree, static_probs, exact_probe, &mut sink);
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
        peak_pending_cutsets: filter_out.peak_pending,
        peak_inflight_models: peak_inflight.into_inner(),
        cache_stats: cache.as_ref().map(QuantCache::stats).unwrap_or_default(),
        kernel_usage,
        generation_span,
        quantification_span,
        overlap: (generation_span + quantification_span).saturating_sub(pipeline_span),
        filter_busy: filter_out.busy,
        quant_busy,
        filter_stats: filter_out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::NodeId;

    /// A deterministic candidate stream for one epoch: `batches`
    /// deliveries of `batch_len` random sets of order 2 to 4 over 32
    /// events. Repeats are exact duplicates, and pairs drawn late
    /// subsume triples and quadruples kept earlier.
    fn random_deliveries(batches: usize, batch_len: usize) -> Vec<Vec<Cutset>> {
        let mut state: u64 = 0x5eed_f11e;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        (0..batches)
            .map(|_| {
                (0..batch_len)
                    .map(|_| {
                        let order = 2 + next(3);
                        Cutset::new((0..order).map(|_| NodeId::from_index(next(32) as usize)))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn an_epoch_buffer_is_reminimized_within_its_bound() {
        const DELIVERY: usize = 512;
        let mut deliveries = random_deliveries(26, DELIVERY);
        // Late deliveries: the first one again (exact duplicates of sets
        // kept long ago), then singletons that subsume kept pairs.
        deliveries.push(deliveries[0].clone());
        deliveries.push(
            [3, 17, 29]
                .map(|e| Cutset::new([NodeId::from_index(e)]))
                .to_vec(),
        );
        let stream: Vec<Cutset> = deliveries.iter().flatten().cloned().collect();
        assert!(stream.len() >= 3 * MIN_BUFFER_LIMIT);

        let mut filter = Filter::default();
        let mut seen: Vec<Cutset> = Vec::new();
        let mut most_minimal = 0;
        let mut shrank = false;
        for delivery in deliveries {
            seen.extend(delivery.iter().cloned());
            most_minimal = most_minimal.max(CutsetList::from_vec(seen.clone()).minimize().len());
            let before = filter.buffered;
            filter.absorb(0, delivery, 0);
            let buffer = filter.epochs[&0].cutsets.len();
            assert_eq!(buffer, filter.buffered);
            shrank |= buffer < before;
            let bound = MIN_BUFFER_LIMIT.max(2 * most_minimal) + DELIVERY;
            assert!(
                buffer <= bound,
                "buffer of {buffer} candidates after {} delivered (bound {bound})",
                seen.len()
            );
            assert!(filter.peak_pending <= bound);
        }
        assert!(shrank, "the buffer was never re-minimized mid-epoch");

        let released = filter.finish(0, 0);
        let reference: Vec<Cutset> = CutsetList::from_vec(stream.clone())
            .minimize()
            .into_iter()
            .collect();
        assert_eq!(released, reference);
        assert!(filter.epochs.is_empty());
        assert_eq!(filter.buffered, 0);
        assert_eq!(filter.stats.offered, stream.len() as u64);
        assert_eq!(
            filter.stats.offered - filter.stats.rejects,
            released.len() as u64
        );
    }
}
