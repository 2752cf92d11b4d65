//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span: name, start, end, parent span and an id (cell, round or program
//! index). Spans stay in memory and are written out once, when the
//! benchmark ends. With the recorder off, [`Tracer::span`] only calls the
//! closure, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tp_core::TraceProcessor;
use tp_metrics::Stage;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.run` or `ckpt.decode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell, round or program index, depending on the span.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder plus the host-side observations that need a live
/// simulator: stage-profiler totals and the wakeup-index high-water mark.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stage_nanos: [u64; Stage::ALL.len()],
    index_entries_max: usize,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder; `on = false` gives the untraced run.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stage_nanos: [0; Stage::ALL.len()],
            index_entries_max: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let depth = self.open.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        let out = f(self);
        self.close_to(depth);
        out
    }

    /// Closes every span opened above `depth`: this span and any inner
    /// span a caught panic unwound through.
    fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("open span above depth");
            self.spans[idx].end_ns = now;
        }
    }

    /// Adds `n` to the counter `name` when tracing (counts recorded at a
    /// span boundary, such as checkpoint bytes).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// The counter `name` (zero if never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Attaches the stage profiler to `sim` when tracing.
    pub fn attach(&self, sim: &mut TraceProcessor<'_>) {
        if self.on {
            sim.attach_stage_profiler();
        }
    }

    /// Records the wakeup-index footprint of `sim` between run chunks.
    pub fn note_index(&mut self, sim: &TraceProcessor<'_>) {
        if self.on {
            let (waiters, _keys, completions, loads) = sim.index_footprint();
            self.index_entries_max = self.index_entries_max.max(waiters + completions + loads);
        }
    }

    /// Folds `sim`'s stage-profiler totals into the run's totals.
    pub fn absorb_profile(&mut self, sim: &TraceProcessor<'_>) {
        if let Some(p) = sim.stage_profiler() {
            for (acc, stage) in self.stage_nanos.iter_mut().zip(Stage::ALL) {
                *acc += p.nanos(stage);
            }
        }
    }

    /// Accumulated stage-profiler nanoseconds, in [`Stage::ALL`] order.
    pub fn stage_nanos(&self) -> &[u64; Stage::ALL.len()] {
        &self.stage_nanos
    }

    /// Largest wakeup-index entry count seen between run chunks.
    pub fn index_entries_max(&self) -> usize {
        self.index_entries_max
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e3).collect()
    }

    /// Per span name: `(calls, total seconds, self seconds)`, where self
    /// time is the span's duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child;
        }
        out
    }

    /// The spans as a Chrome trace-event document (`X` events, one
    /// thread), loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.id,
            );
            s.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        s.push_str("]}\n");
        s
    }
}
