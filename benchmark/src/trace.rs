//! In-memory span recording for the traced replay, self-time
//! attribution, and Chrome trace-event output.
//!
//! Spans are recorded around calls into the library from the
//! benchmark's own code. Layers that run once per cutset (tens of
//! thousands of calls per pass) go through a lap timer instead of being
//! recorded one by one, and enter the trace as one aggregated child span
//! per layer, laid end to end inside the span that made the calls.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub dur: u64,
    pub parent: Option<usize>,
    /// Calls folded into the span (1 unless aggregated).
    pub calls: u64,
}

/// Records spans of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            dur: 0,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let end = self.now();
        self.spans[id].dur = end - self.spans[id].start;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attach a child of `parent` that covers the last `dur` of it — a
    /// phase the callee timed itself and ran last (MOCUS minimizes its
    /// candidates after enumeration).
    pub fn tail_child(&mut self, parent: usize, name: &'static str, dur: Duration) {
        let p = &self.spans[parent];
        let dur = nanos(dur).min(p.dur);
        let start = p.start + p.dur - dur;
        self.spans.push(Span {
            name,
            start,
            dur,
            parent: Some(parent),
            calls: 1,
        });
    }

    /// Attach the lap timer's layers as children of `parent`, laid end
    /// to end from its start.
    pub fn aggregate(&mut self, parent: usize, laps: &Laps) {
        let mut cursor = self.spans[parent].start;
        for (&name, &(dur, calls)) in laps.names.iter().zip(&laps.totals) {
            if calls == 0 {
                continue;
            }
            self.spans.push(Span {
                name,
                start: cursor,
                dur,
                parent: Some(parent),
                calls,
            });
            cursor += dur;
        }
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// A lap timer over a fixed set of layers, for calls too frequent to
/// record one by one: each mark charges the time since the previous mark
/// to the named layer, so back-to-back calls share one clock read.
pub struct Laps {
    names: &'static [&'static str],
    /// `(nanoseconds, calls)` per layer.
    totals: Vec<(u64, u64)>,
    last: Instant,
}

impl Laps {
    pub fn new(names: &'static [&'static str]) -> Self {
        Laps {
            names,
            totals: vec![(0, 0); names.len()],
            last: Instant::now(),
        }
    }

    /// Restart the clock; the time since the last mark is charged to no
    /// layer.
    pub fn resume(&mut self) {
        self.last = Instant::now();
    }

    /// Charge the time since the last mark (or resume) to layer `layer`.
    pub fn mark(&mut self, layer: usize) {
        let now = Instant::now();
        let total = &mut self.totals[layer];
        total.0 += nanos(now - self.last);
        total.1 += 1;
        self.last = now;
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.start + s.dur));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            let (lo, hi) = (s.start, s.start + s.dur);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur - covered
        })
        .collect()
}

/// Self seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for one traced
/// pass: complete events with microsecond times, each carrying its id,
/// parent id, pass label, self time and call count in its arguments.
pub fn chrome_trace(pass: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let events: Vec<String> = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own))| {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"pass\":\"{pass}\",\"self_us\":{:.3},\"calls\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                s.dur as f64 / 1e3,
                own as f64 / 1e3,
                s.calls,
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, dur: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            dur,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 20, 30, Some(0)),
            // Overhangs the parent's end: only the inside part counts.
            span("c", 90, 30, Some(0)),
            span("leaf", 12, 5, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 30, 5]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["root"] - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn recorded_spans_nest_and_aggregate() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("root");
        tracer.span("child", || std::hint::black_box(1 + 1));
        let mut laps = Laps::new(&["unused", "per_call"]);
        for _ in 0..3 {
            laps.resume();
            std::hint::black_box(2 * 2);
            laps.mark(1);
        }
        tracer.end(root);
        tracer.aggregate(root, &laps);
        tracer.tail_child(root, "tail", Duration::from_secs(1));
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].name, spans[2].calls), ("per_call", 3));
        // A tail child longer than its parent is clipped to it.
        assert_eq!(spans[3].dur, spans[0].dur);
        assert_eq!(self_times(&spans)[0], 0);
        let json = chrome_trace("p0", &spans);
        assert!(json.contains("\"name\":\"per_call\""));
        assert!(json.contains("\"parent\":null"));
    }
}
