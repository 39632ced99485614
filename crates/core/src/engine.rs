use crate::backend::{CutsetBackend, GenError, GenerationStats};
use crate::canonical::{CacheStats, QuantCache};
use crate::error::CoreError;
use crate::ftc::FtcContext;
use crate::pipeline::{
    quantify_cutset_at_horizons, AnalysisOptions, CutsetReport, FilterShardStats,
};
use crate::quantify::{KernelUsage, QuantifyOptions};
use crate::translate::Translated;
use sdft_ctmc::SolverWorkspace;
use sdft_ft::{Cutset, CutsetList, EventProbabilities, FaultTree, FxBuild};
use sdft_mocus::{CandidateSink, MocusError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cutsets per filter→quantification delivery batch (one channel send
/// and one wakeup per batch instead of per cutset).
const QUANT_BATCH: usize = 256;

/// Filter→quantification channel capacity, in batches. Together with
/// [`QUANT_BATCH`] this bounds minimal cutsets awaiting quantification
/// to 32,768. A release blocks generation while the channel is full, so
/// the channel is also what lets generation run ahead of the workers;
/// at 4096 cutsets `m2_horizons` and `bwr_triggers` lost 5–8% of
/// `wall_s` (EXPERIMENTS.md, *The filter on the generator thread*).
const QUANT_CHANNEL_BATCHES: usize = 128;

/// Smallest length at which an epoch buffer is re-minimized.
const MIN_BUFFER_LIMIT: usize = 4096;

/// What the engine hands back to the pipeline: per-horizon reports in
/// canonical cutset order, plus per-stage statistics.
pub(crate) struct EngineOutput {
    /// One report vector per horizon, in canonical (order, events)
    /// cutset order.
    pub(crate) per_horizon: Vec<Vec<CutsetReport>>,
    pub(crate) gen_stats: GenerationStats,
    /// Peak candidates the filter buffered over all open epochs.
    pub(crate) peak_pending_cutsets: usize,
    pub(crate) cache_stats: CacheStats,
    pub(crate) kernel_usage: KernelUsage,
    /// Wall-clock span of the generation stage, filter included.
    pub(crate) generation_span: Duration,
    /// Wall-clock span of the quantification stage (first cutset
    /// released to the last worker joining).
    pub(crate) quantification_span: Duration,
    /// Stage-seconds the generation and quantification spans overlapped.
    pub(crate) overlap: Duration,
    /// Time the filter spent in its minimize passes, a share of
    /// `generation_span`.
    pub(crate) filter_busy: Duration,
    /// Time quantification workers spent solving models, summed over
    /// workers (not blocked on the channel).
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
    /// Set once by `abort`; readable without the lock, so the generator
    /// can poll it on every delivery. `Relaxed` suffices: the flag
    /// publishes no other data, and the waiters read it under the lock
    /// `abort` sets it under.
    aborted: AtomicBool,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Channel<T> {
    fn new(capacity: usize) -> Self {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            aborted: AtomicBool::new(false),
        }
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Returns `false` when the channel was aborted (the item is
    /// dropped); the caller should unwind.
    fn send(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("channel poisoned");
        loop {
            if self.is_aborted() {
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
            if self.is_aborted() {
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
        // Set under the lock, so a waiter that checked the flag is
        // already waiting when the notification comes.
        let mut state = self.state.lock().expect("channel poisoned");
        self.aborted.store(true, Ordering::Relaxed);
        state.queue.clear();
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Live progress counters, shared by all stages. Updated with relaxed
/// writes whether or not a monitor is attached (unmeasurable overhead).
#[derive(Default)]
struct Progress {
    candidates: AtomicU64,
    /// Candidates the filter buffers over all open epochs.
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
    cache: &'a QuantCache,
    probs_per_horizon: &'a [EventProbabilities],
    errors: &'a ErrorSlot,
}

/// Hands released minimal cutsets to the quantification channel in
/// [`QUANT_BATCH`] chunks, mapping ids back to the original tree.
struct Releaser<'a> {
    quant_tx: &'a Channel<Vec<Cutset>>,
    translated: &'a Translated,
    progress: &'a Progress,
    /// When the first batch went to quantification.
    first_release: Option<Instant>,
}

impl Releaser<'_> {
    /// `false` when the pipeline was aborted mid-release; the caller
    /// should unwind.
    fn release(&mut self, sorted: Vec<Cutset>) -> bool {
        self.progress
            .finalized
            .fetch_add(sorted.len() as u64, Ordering::Relaxed);
        let mut batch: Vec<Cutset> = Vec::with_capacity(QUANT_BATCH);
        for cutset in sorted {
            batch.push(self.translated.cutset_into_original(cutset));
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
        self.first_release.get_or_insert_with(Instant::now);
        self.quant_tx.send(batch)
    }
}

/// One open epoch's candidates. Deliveries are appended unfiltered;
/// once the buffer reaches `max(MIN_BUFFER_LIMIT, 2 × its length after
/// the last minimize)` it is re-minimized in place. The buffer thus
/// holds at most twice the minimal sets found so far (or
/// [`MIN_BUFFER_LIMIT`]), and every candidate takes part in amortized
/// O(1) minimize passes.
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
    /// into `stats` and the time into `busy`; returns the candidates
    /// removed.
    fn minimize(&mut self, stats: &mut FilterShardStats, busy: &mut Duration) -> usize {
        let begin = Instant::now();
        let before = self.cutsets.len();
        let (minimal, probes) =
            CutsetList::from_vec(std::mem::take(&mut self.cutsets)).minimize_with_stats();
        self.cutsets = minimal.into_iter().collect();
        self.limit = (2 * self.cutsets.len()).max(MIN_BUFFER_LIMIT);
        let removed = before - self.cutsets.len();
        stats.probes += probes;
        stats.rejects += removed as u64;
        *busy += begin.elapsed();
        removed
    }
}

/// The subsumption filter's state: one [`EpochBuffer`] per open epoch,
/// and the filter's counters.
#[derive(Default)]
struct Filter {
    epochs: HashMap<u32, EpochBuffer, FxBuild>,
    /// Candidates buffered over all open epochs.
    buffered: usize,
    /// Peak of `buffered`, sampled before every minimize, when a buffer
    /// is at its longest.
    peak_pending: usize,
    /// Time spent in minimize passes.
    busy: Duration,
    stats: FilterShardStats,
}

impl Filter {
    /// Append one candidate to its epoch's buffer, re-minimizing the
    /// buffer once it reaches its limit.
    fn absorb(&mut self, epoch: u32, cutset: Cutset) {
        self.stats.offered += 1;
        self.buffered += 1;
        let buffer = self.epochs.entry(epoch).or_insert_with(EpochBuffer::new);
        buffer.cutsets.push(cutset);
        if buffer.cutsets.len() >= buffer.limit {
            self.peak_pending = self.peak_pending.max(self.buffered);
            self.buffered -= buffer.minimize(&mut self.stats, &mut self.busy);
        }
    }

    /// Close `epoch`: its minimal cutsets in canonical order.
    fn finish(&mut self, epoch: u32) -> Vec<Cutset> {
        let mut buffer = self.epochs.remove(&epoch).unwrap_or_else(EpochBuffer::new);
        self.peak_pending = self.peak_pending.max(self.buffered);
        self.buffered -= buffer.cutsets.len();
        buffer.minimize(&mut self.stats, &mut self.busy);
        buffer.cutsets
    }
}

/// The generator's sink on the calling thread: buffer each candidate in
/// the [`Filter`], and at an epoch watermark release the epoch's
/// minimal cutsets to quantification. Determinism: minimal sets of a
/// multiset are unique and [`CutsetList::minimize_with_stats`] returns
/// them in canonical order, so the released sequence does not depend on
/// when buffers were re-minimized.
struct FilterSink<'a> {
    filter: Filter,
    releaser: Releaser<'a>,
}

impl FilterSink<'_> {
    /// After generation: release the epochs still open, in epoch order.
    /// A backend completes every epoch before it returns, so this only
    /// guards against a missed watermark dropping cutsets.
    fn settle(&mut self) -> bool {
        let mut open: Vec<u32> = self.filter.epochs.keys().copied().collect();
        open.sort_unstable();
        open.into_iter().all(|epoch| self.epoch_complete(epoch))
    }
}

impl CandidateSink for FilterSink<'_> {
    fn deliver(&mut self, epoch: u32, cutset: Cutset) -> bool {
        // A failed worker aborts the channel: stop generating.
        if self.releaser.quant_tx.is_aborted() {
            return false;
        }
        self.filter.absorb(epoch, cutset);
        let progress = self.releaser.progress;
        progress
            .candidates
            .store(self.filter.stats.offered, Ordering::Relaxed);
        progress
            .pending
            .store(self.filter.buffered, Ordering::Relaxed);
        true
    }

    fn epoch_complete(&mut self, epoch: u32) -> bool {
        let minimal = self.filter.finish(epoch);
        self.releaser
            .progress
            .pending
            .store(self.filter.buffered, Ordering::Relaxed);
        self.releaser.release(minimal)
    }
}

/// One quantification worker: drain cutsets, build and solve their
/// models against all horizons in the worker's own solver workspace,
/// abort the whole pipeline on error.
fn quant_stage(
    quant_rx: &Channel<Vec<Cutset>>,
    qctx: &QuantContext<'_>,
    progress: &Progress,
) -> (Vec<Vec<CutsetReport>>, KernelUsage, Duration) {
    let mut workspace = SolverWorkspace::new();
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
            match quantified {
                Ok((reports, u)) => {
                    usage.absorb(u);
                    local.push(reports);
                    progress.quantified.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    record_error(qctx.errors, cutset, error);
                    // Stall everything: the other workers' next recv and
                    // the generator's next delivery or release fail.
                    quant_rx.abort();
                    busy += work_begin.elapsed();
                    break 'drain;
                }
            }
        }
        busy += work_begin.elapsed();
    }
    (local, usage, busy)
}

/// Run the analysis: generation and the filter on the calling thread,
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
    let qopts = options.quantify_options(horizons[0]);
    let cache = QuantCache::new();
    let quant_channel: Channel<Vec<Cutset>> = Channel::new(QUANT_CHANNEL_BATCHES);
    let progress = Progress::default();
    let errors: ErrorSlot = Mutex::new(None);
    let monitor_done = (Mutex::new(false), Condvar::new());
    let qctx = QuantContext {
        tree,
        ctx,
        horizons,
        qopts: &qopts,
        cache: &cache,
        probs_per_horizon,
        errors: &errors,
    };

    let pipeline_start = Instant::now();
    let (gen_result, generation_span, filter, first_release, worker_outputs, quant_end) =
        std::thread::scope(|scope| {
            let quant_handles: Vec<_> = (0..threads)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("sdft-quant-{i}"))
                        .spawn_scoped(scope, || quant_stage(&quant_channel, &qctx, &progress))
                        .expect("spawn quant worker")
                })
                .collect();
            if let Some(interval) = options.progress {
                let monitor_done = &monitor_done;
                let progress = &progress;
                let cache = &cache;
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
                        let stats = cache.stats();
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

            // Generation and the filter run on the calling thread.
            let mut sink = FilterSink {
                filter: Filter::default(),
                releaser: Releaser {
                    quant_tx: &quant_channel,
                    translated,
                    progress: &progress,
                    first_release: None,
                },
            };
            let gen_start = Instant::now();
            let gen_result =
                backend.generate(&translated.tree, static_probs, exact_probe, &mut sink);
            if gen_result.is_ok() && sink.settle() {
                quant_channel.close();
            } else {
                // A generation failure tears the workers down; on
                // `Aborted` (or a failed settle) a worker already did.
                quant_channel.abort();
            }
            let generation_span = gen_start.elapsed();

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
                sink.filter,
                sink.releaser.first_release,
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

    let quantification_span =
        first_release.map_or(Duration::ZERO, |first| quant_end.duration_since(first));
    Ok(EngineOutput {
        per_horizon,
        gen_stats,
        peak_pending_cutsets: filter.peak_pending,
        cache_stats: cache.stats(),
        kernel_usage,
        generation_span,
        quantification_span,
        overlap: (generation_span + quantification_span).saturating_sub(pipeline_span),
        filter_busy: filter.busy,
        quant_busy,
        filter_stats: filter.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::NodeId;

    /// A deterministic candidate stream for one epoch: `n` random sets
    /// of order 2 to 4 over 32 events. Repeats are exact duplicates, and
    /// pairs drawn late subsume triples and quadruples kept earlier.
    fn random_candidates(n: usize) -> Vec<Cutset> {
        let mut state: u64 = 0x5eed_f11e;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        (0..n)
            .map(|_| {
                let order = 2 + next(3);
                Cutset::new((0..order).map(|_| NodeId::from_index(next(32) as usize)))
            })
            .collect()
    }

    #[test]
    fn an_epoch_buffer_is_reminimized_within_its_bound() {
        let mut stream = random_candidates(26 * 512);
        // Late deliveries: the first 512 again (exact duplicates of sets
        // kept long ago), then singletons that subsume kept pairs.
        stream.extend_from_within(..512);
        stream.extend([3, 17, 29].map(|e| Cutset::new([NodeId::from_index(e)])));
        assert!(stream.len() >= 3 * MIN_BUFFER_LIMIT);

        let mut filter = Filter::default();
        // The minimal sets of the candidates delivered so far, kept
        // incrementally: the reference the bound is stated in.
        let mut minimal: Vec<Cutset> = Vec::new();
        let mut most_minimal = 0;
        let mut shrank = false;
        for (seen, cutset) in stream.iter().enumerate() {
            if !minimal.iter().any(|m| m.is_subset_of(cutset)) {
                minimal.retain(|m| !cutset.is_subset_of(m));
                minimal.push(cutset.clone());
            }
            most_minimal = most_minimal.max(minimal.len());
            let before = filter.buffered;
            filter.absorb(0, cutset.clone());
            let buffer = filter.epochs[&0].cutsets.len();
            assert_eq!(buffer, filter.buffered);
            shrank |= buffer < before;
            let bound = MIN_BUFFER_LIMIT.max(2 * most_minimal);
            assert!(
                buffer <= bound,
                "buffer of {buffer} candidates after {} delivered (bound {bound})",
                seen + 1
            );
            assert!(filter.peak_pending <= bound);
        }
        assert!(shrank, "the buffer was never re-minimized mid-epoch");

        let released = filter.finish(0);
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
