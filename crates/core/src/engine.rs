use crate::backend::{GenError, GenerationStats};
use crate::canonical::{CacheStats, QuantCache};
use crate::error::CoreError;
use crate::ftc::FtcContext;
use crate::pipeline::{quantify_cutset_at_horizons, AnalysisOptions, CutsetReport};
use crate::quantify::{KernelUsage, QuantifyOptions};
use crate::translate::Translated;
use sdft_ctmc::SolverWorkspace;
use sdft_ft::{Cutset, EventProbabilities, FaultTree};
use sdft_mocus::MocusError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cutsets per generator→quantification delivery batch (one channel
/// send and one wakeup per batch instead of per cutset).
const QUANT_BATCH: usize = 256;

/// Generator→quantification channel capacity, in batches. Together with
/// [`QUANT_BATCH`] this bounds minimal cutsets awaiting quantification
/// to 32,768. A release blocks generation while the channel is full, so
/// the channel is also what lets generation run ahead of the workers;
/// at 4096 cutsets `m2_horizons` and `bwr_triggers` lost 5–8% of
/// `wall_s` (EXPERIMENTS.md, *The filter on the generator thread*).
const QUANT_CHANNEL_BATCHES: usize = 128;

/// What the engine hands back to the pipeline: per-horizon reports in
/// canonical cutset order, plus per-stage statistics.
pub(crate) struct EngineOutput {
    /// One report vector per horizon, in canonical (order, events)
    /// cutset order.
    pub(crate) per_horizon: Vec<Vec<CutsetReport>>,
    pub(crate) gen_stats: GenerationStats,
    pub(crate) cache_stats: CacheStats,
    pub(crate) kernel_usage: KernelUsage,
    /// Wall-clock span of the generation stage, releases included.
    pub(crate) generation_span: Duration,
    /// Wall-clock span of the quantification stage (first cutset
    /// released to the last worker joining).
    pub(crate) quantification_span: Duration,
    /// Stage-seconds the generation and quantification spans overlapped.
    pub(crate) overlap: Duration,
    /// Time quantification workers spent solving models, summed over
    /// workers (not blocked on the channel).
    pub(crate) quant_busy: Duration,
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
    /// can poll it on every release. `Relaxed` suffices: the flag
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
                    // the generator's next release fail.
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

/// Run the analysis: `generate` on the calling thread, `threads`
/// quantification workers, and (when enabled) a progress monitor — all
/// joined before returning. `generate` hands the minimal cutsets of
/// `translated.tree` to the release callback it is given, list by list;
/// the callback maps them back to `tree`'s ids and queues them for
/// quantification, and returns `false` once the pipeline was aborted.
pub(crate) fn run(
    tree: &FaultTree,
    translated: &Translated,
    horizons: &[f64],
    options: &AnalysisOptions,
    probs_per_horizon: &[EventProbabilities],
    ctx: &FtcContext,
    generate: impl FnOnce(&mut dyn FnMut(Vec<Cutset>) -> bool) -> Result<GenerationStats, GenError>,
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
    let (gen_result, generation_span, first_release, worker_outputs, quant_end) =
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
                            "progress: {} cutsets finalized, {} models quantified, \
                             cache hit rate {rate:.1}%",
                            progress.finalized.load(Ordering::Relaxed),
                            progress.quantified.load(Ordering::Relaxed),
                        );
                    }
                });
            }

            // Generation runs on the calling thread. A release goes to
            // quantification in `QUANT_BATCH` chunks, mapped back to the
            // original tree's ids.
            let mut first_release: Option<Instant> = None;
            let mut release = |minimal: Vec<Cutset>| {
                // A failed worker aborts the channel: stop generating.
                if quant_channel.is_aborted() {
                    return false;
                }
                progress
                    .finalized
                    .fetch_add(minimal.len() as u64, Ordering::Relaxed);
                let mut cutsets = minimal
                    .into_iter()
                    .map(|cutset| translated.cutset_into_original(cutset));
                loop {
                    let batch: Vec<Cutset> = cutsets.by_ref().take(QUANT_BATCH).collect();
                    if batch.is_empty() {
                        return true;
                    }
                    first_release.get_or_insert_with(Instant::now);
                    if !quant_channel.send(batch) {
                        return false;
                    }
                }
            };
            let gen_start = Instant::now();
            let gen_result = generate(&mut release);
            if gen_result.is_ok() {
                quant_channel.close();
            } else {
                // A generation failure tears the workers down; on
                // `Aborted` (or a failed release) a worker already did.
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
                first_release,
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
        cache_stats: cache.stats(),
        kernel_usage,
        generation_span,
        quantification_span,
        overlap: (generation_span + quantification_span).saturating_sub(pipeline_span),
        quant_busy,
    })
}
