//! Event capture: attach the `tp-events` Chrome-trace sink to a
//! simulator, run it, and keep the captured document. Shared by
//! `tp tracetap` and `tp fuzz`'s divergence capture.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tp_core::{TraceProcessor, TraceProcessorConfig};
use tp_events::ChromeTraceSink;
use tp_isa::{Frontend, Program};
use tp_stats::Json;

use crate::sampled::{drive_rounds, Interval, RoundObserver, SampleConfig};

/// A finished event capture: the Chrome trace document plus the run's
/// headline numbers.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Chrome trace-event JSON (loads in perfetto / `chrome://tracing`).
    pub chrome_json: Json,
    /// How the run ended: `None` for a clean stop, `Some(description)` for
    /// a simulator error or panic. The capture up to the failure point
    /// stands either way — that is the whole point of a trace tap.
    pub error: Option<String>,
    /// Whether the program halted.
    pub halted: bool,
    /// Total retired instructions on the simulator (including any
    /// checkpointed prefix).
    pub retired: u64,
    /// Final cycle count.
    pub cycles: u64,
}

/// Attaches a Chrome-trace sink to `sim`, runs up to `interval` more
/// retired instructions, and returns the capture. The bus is always
/// released, so a simulator error — or even a panic — mid-run still yields
/// the events recorded up to that point.
pub fn capture_interval(sim: &mut TraceProcessor<'_>, interval: u64) -> Capture {
    sim.attach_event_sink(Box::new(ChromeTraceSink::new()));
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run_interval(interval)));
    let error = match outcome {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(p) => Some(format!("simulator panicked: {}", panic_message(&p))),
    };
    let mut bus = sim.release_event_bus();
    let chrome = bus.take::<ChromeTraceSink>().expect("attached above");
    Capture {
        chrome_json: chrome.into_json(),
        error,
        halted: sim.halted(),
        retired: sim.stats().retired_instrs,
        cycles: sim.stats().cycles,
    }
}

/// Builds a fresh simulator for `program` under `cfg` and captures a run
/// of up to `budget` retired instructions ([`capture_interval`]).
pub fn capture_program(program: &Program, cfg: TraceProcessorConfig, budget: u64) -> Capture {
    let mut sim = TraceProcessor::new(program, cfg);
    capture_interval(&mut sim, budget)
}

/// A sampled-run event capture: one Chrome trace document whose detailed
/// intervals are laid end to end on a single global timeline.
#[derive(Clone, Debug)]
pub struct SampledCapture {
    /// The Chrome trace-event JSON document.
    pub chrome_json: Json,
    /// Measured intervals captured (a last round whose warmup reaches the
    /// halt measures nothing and is not one).
    pub intervals: u64,
    /// Total program instructions covered (detailed + fast-forwarded).
    pub total_instrs: u64,
    /// Whether the program halted.
    pub halted: bool,
}

/// Captures a sampled run's events on one coherent timeline.
///
/// Walks the sampled runner's rounds ([`crate::sampled::drive_rounds`]),
/// reusing a *single* [`ChromeTraceSink`] across the detailed legs: each
/// round's simulator restarts at cycle 0, so before re-attaching the sink
/// its timeline base is advanced past everything already captured and the
/// round is stamped with `(round index, retired-instruction offset)` on a
/// dedicated `sampling` track. Fast-forward legs appear as gaps: the base
/// also advances by one cycle per functionally skipped instruction (an
/// IPC-1 proxy — the legs execute in the functional model, which has no
/// cycle clock), so interval spacing reflects skip lengths without
/// pretending cycle accuracy.
///
/// At most `max_rounds` rounds run (the trace file grows with every
/// event; a tap wants the first few intervals, not the whole run).
///
/// # Panics
///
/// Panics if the simulator deadlocks or a checkpoint fails to
/// round-trip — bugs, not results.
pub fn capture_sampled(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
    max_rounds: u64,
) -> SampledCapture {
    let mut timeline = Timeline { sink: Some(Box::new(ChromeTraceSink::new())), base: 0 };
    let (run, halted) = drive_rounds(program, frontend, cfg, sample, max_rounds, &mut timeline);
    SampledCapture {
        chrome_json: timeline.sink.expect("released after every round").into_json(),
        intervals: run.intervals.len() as u64,
        total_instrs: run.total_instrs,
        halted,
    }
}

/// The observer [`capture_sampled`] puts on the driver: the one sink,
/// detached between rounds, and the global timeline base.
struct Timeline {
    sink: Option<Box<ChromeTraceSink>>,
    base: u64,
}

impl RoundObserver for Timeline {
    fn booted(&mut self, round: u64, retired: u64, sim: &mut TraceProcessor<'_>) {
        let mut sink = self.sink.take().expect("released after every round");
        sink.set_base(self.base);
        sink.mark_interval(round, retired);
        sim.attach_event_sink(sink);
    }

    fn measured(&mut self, _round: u64, _leg: Option<Interval>, sim: &mut TraceProcessor<'_>) {
        self.base += sim.now();
        self.sink = sim.release_event_bus().take::<ChromeTraceSink>();
    }

    fn skipped(&mut self, _start: u64, instrs: u64) {
        // Lay the skipped leg out as a visible gap at an IPC-1 proxy.
        self.base += instrs;
    }
}

/// An observability configuration of the simulator, for paired overhead
/// timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsVariant {
    /// No sink, no profiler — the production configuration.
    Bare,
    /// A `NullSink` attached (empty interest mask: attach plumbing live,
    /// every emission site masked off).
    NullSink,
    /// A full-interest [`MetricsSink`](tp_metrics::MetricsSink) attached.
    MetricsAttached,
    /// The host stage profiler enabled.
    ProfilerEnabled,
}

impl ObsVariant {
    /// All variants, in report order.
    pub const ALL: [ObsVariant; 4] = [
        ObsVariant::Bare,
        ObsVariant::NullSink,
        ObsVariant::MetricsAttached,
        ObsVariant::ProfilerEnabled,
    ];

    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            ObsVariant::Bare => "bare",
            ObsVariant::NullSink => "null-sink",
            ObsVariant::MetricsAttached => "metrics-attached",
            ObsVariant::ProfilerEnabled => "profiler-enabled",
        }
    }
}

/// Paired wall-clock figures for every observability configuration, each
/// the minimum over the repetitions with rotated measurement order.
///
/// Only the `NullSink` figure is gated (the disabled-overhead budget):
/// metrics-attached and profiler-enabled runs *do* pay for observation by
/// design, so their figures are reported, not gated.
#[derive(Clone, Copy, Debug)]
pub struct ObservabilityProbe {
    /// Best bare wall-clock, seconds.
    pub bare_seconds: f64,
    /// Best wall-clock with a `NullSink` attached, seconds.
    pub null_sink_seconds: f64,
    /// Best wall-clock with a full-interest `MetricsSink` attached.
    pub metrics_seconds: f64,
    /// Best wall-clock with the stage profiler enabled.
    pub profiler_seconds: f64,
}

impl ObservabilityProbe {
    /// A variant's overhead relative to the bare run, in percent.
    pub fn overhead_pct(&self, v: ObsVariant) -> f64 {
        100.0 * (self.seconds(v) / self.bare_seconds - 1.0)
    }

    /// A variant's best wall-clock, seconds.
    pub fn seconds(&self, v: ObsVariant) -> f64 {
        match v {
            ObsVariant::Bare => self.bare_seconds,
            ObsVariant::NullSink => self.null_sink_seconds,
            ObsVariant::MetricsAttached => self.metrics_seconds,
            ObsVariant::ProfilerEnabled => self.profiler_seconds,
        }
    }
}

/// Times the tiny synthetic suite under MLB-RET in every
/// [`ObsVariant`], `reps` times each with the order rotated per
/// repetition so machine drift hits all variants equally; each figure is
/// the per-variant minimum.
pub fn measure_observability_overhead(reps: usize) -> ObservabilityProbe {
    let workloads = tp_workloads::suite(tp_workloads::Size::Tiny);
    let cfg = TraceProcessorConfig::paper(tp_core::CiModel::MlbRet);
    let mut best = [f64::MAX; 4];
    for rep in 0..reps.max(1) {
        for i in 0..ObsVariant::ALL.len() {
            let v = ObsVariant::ALL[(i + rep) % ObsVariant::ALL.len()];
            let idx = ObsVariant::ALL.iter().position(|&x| x == v).expect("in ALL");
            best[idx] = best[idx].min(time_tiny_suite(&workloads, &cfg, v));
        }
    }
    ObservabilityProbe {
        bare_seconds: best[0],
        null_sink_seconds: best[1],
        metrics_seconds: best[2],
        profiler_seconds: best[3],
    }
}

fn time_tiny_suite(
    workloads: &[tp_workloads::Workload],
    cfg: &TraceProcessorConfig,
    variant: ObsVariant,
) -> f64 {
    let t = std::time::Instant::now();
    for w in workloads {
        let mut sim = TraceProcessor::new(&w.program, cfg.clone());
        match variant {
            ObsVariant::Bare => {}
            ObsVariant::NullSink => sim.attach_event_sink(Box::new(tp_events::NullSink)),
            ObsVariant::MetricsAttached => {
                sim.attach_event_sink(Box::new(tp_metrics::MetricsSink::new()));
            }
            ObsVariant::ProfilerEnabled => sim.attach_stage_profiler(),
        }
        let r = sim.run(5_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(r.halted, "{} did not halt", w.name);
    }
    t.elapsed().as_secs_f64()
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::CiModel;
    use tp_workloads::{by_name, Size};

    #[test]
    fn capture_renders_the_chrome_trace() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let cap = capture_program(&w.program, cfg, 2_000);
        assert!(cap.error.is_none(), "{:?}", cap.error);
        assert!(cap.retired > 0);
        let doc = crate::json::parse(&cap.chrome_json.to_string()).expect("valid json");
        let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        assert!(rows.iter().any(|r| r.str("ph") == Some("B")));
        // Metadata rows name the PEs and the fetch/cgci/counters tracks.
        let names: Vec<&str> = rows
            .iter()
            .filter(|r| r.str("ph") == Some("M"))
            .filter_map(|r| r.get("args")?.str("name"))
            .collect();
        assert!(names.contains(&"PE 0") && names.contains(&"counters"), "{names:?}");
    }
}
