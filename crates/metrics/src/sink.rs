//! [`MetricsSink`]: an [`EventSink`] that folds the structured event
//! stream into derived distributions — no new simulator-side
//! instrumentation, just observation of what the bus already reports.

use std::any::Any;
use std::collections::HashMap;

use tp_events::{BusChannel, CategoryMask, Event, EventSink};
use tp_stats::{Json, Table};

use crate::counter::{Counter, Gauge};
use crate::hist::Histogram;

/// The derived distributions and counters a [`MetricsSink`] accumulates.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Cycles from `RecoveryStarted` to `RecoveryApplied`/`Abandoned`.
    pub recovery_latency: Histogram,
    /// Cycles a trace stayed resident in a PE (dispatch to retire/squash;
    /// run-end drained closes are excluded — they measure the run length,
    /// not a residency).
    pub trace_residency: Histogram,
    /// Occupied-PE count per cycle (`WindowSample`).
    pub window_occupancy: Histogram,
    /// Fetch-queue depth per cycle (`WindowSample`).
    pub fetch_queue_depth: Histogram,
    /// Instructions issued per active cycle (`IssueSample`).
    pub issue_width: Histogram,
    /// Cache-bus waiters per contended cycle (`BusSample`).
    pub cache_bus_waiting: Histogram,
    /// Result-bus waiters per contended cycle (`BusSample`).
    pub result_bus_waiting: Histogram,
    /// Cycles between consecutive misprediction detections.
    pub mispredict_interarrival: Histogram,
    /// |detected re-convergence PC − static immediate post-dominator| per
    /// `CgciClosed`, for branches present in the ipdom map.
    pub reconv_distance: Histogram,
    /// `CgciClosed` events whose branch has no mapped static ipdom (e.g.
    /// return-continuation detections with no intra-function
    /// post-dominator). `reconv_distance.count() + reconv_unmapped`
    /// always equals the CGCI close count.
    pub reconv_unmapped: Counter,
    /// Peak window occupancy.
    pub window_peak: Gauge,
    /// Traces dispatched.
    pub traces_dispatched: Counter,
    /// Traces retired.
    pub traces_retired: Counter,
    /// Traces squashed (real squashes, not run-end drains).
    pub traces_squashed: Counter,
    /// Traces repaired in place (FGCI).
    pub traces_repaired: Counter,
    /// Control-independent traces preserved across a recovery.
    pub traces_preserved: Counter,
    /// Preserved traces re-renamed against corrected live-ins.
    pub traces_redispatched: Counter,
    /// Misprediction detections.
    pub mispredicts: Counter,
    /// Recoveries started.
    pub recoveries_started: Counter,
    /// Recoveries that reached their apply point.
    pub recoveries_applied: Counter,
    /// Recoveries abandoned.
    pub recoveries_abandoned: Counter,
    /// CGCI attempts opened.
    pub cgci_opened: Counter,
    /// CGCI attempts closed.
    pub cgci_closed: Counter,
}

impl Metrics {
    /// Folds another interval's metrics in. Histogram merge is exact
    /// (fixed bucket layout), counter merge is addition.
    pub fn merge(&mut self, other: &Metrics) {
        self.recovery_latency.merge(&other.recovery_latency);
        self.trace_residency.merge(&other.trace_residency);
        self.window_occupancy.merge(&other.window_occupancy);
        self.fetch_queue_depth.merge(&other.fetch_queue_depth);
        self.issue_width.merge(&other.issue_width);
        self.cache_bus_waiting.merge(&other.cache_bus_waiting);
        self.result_bus_waiting.merge(&other.result_bus_waiting);
        self.mispredict_interarrival.merge(&other.mispredict_interarrival);
        self.reconv_distance.merge(&other.reconv_distance);
        self.reconv_unmapped.merge(other.reconv_unmapped);
        self.window_peak.set(self.window_peak.max().max(other.window_peak.max()));
        self.traces_dispatched.merge(other.traces_dispatched);
        self.traces_retired.merge(other.traces_retired);
        self.traces_squashed.merge(other.traces_squashed);
        self.traces_repaired.merge(other.traces_repaired);
        self.traces_preserved.merge(other.traces_preserved);
        self.traces_redispatched.merge(other.traces_redispatched);
        self.mispredicts.merge(other.mispredicts);
        self.recoveries_started.merge(other.recoveries_started);
        self.recoveries_applied.merge(other.recoveries_applied);
        self.recoveries_abandoned.merge(other.recoveries_abandoned);
        self.cgci_opened.merge(other.cgci_opened);
        self.cgci_closed.merge(other.cgci_closed);
    }

    /// The distribution catalogue as `(name, histogram)` pairs, in report
    /// order.
    pub fn distributions(&self) -> [(&'static str, &Histogram); 9] {
        [
            ("recovery-latency", &self.recovery_latency),
            ("trace-residency", &self.trace_residency),
            ("window-occupancy", &self.window_occupancy),
            ("fetch-queue-depth", &self.fetch_queue_depth),
            ("issue-width", &self.issue_width),
            ("cache-bus-waiting", &self.cache_bus_waiting),
            ("result-bus-waiting", &self.result_bus_waiting),
            ("mispredict-interarrival", &self.mispredict_interarrival),
            ("reconv-distance", &self.reconv_distance),
        ]
    }

    /// All percentile summaries as one [`Table`] (the shared fixed-width
    /// writer also used by the attribution ledger).
    pub fn table(&self) -> Table {
        let mut t = Table::new("distribution", &["count", "mean", "p50", "p90", "p99", "max"]);
        for (name, h) in self.distributions() {
            t.row(
                name,
                &[
                    h.count() as f64,
                    h.mean(),
                    h.p50() as f64,
                    h.p90() as f64,
                    h.p99() as f64,
                    h.max() as f64,
                ],
            );
        }
        t
    }

    /// The metrics as a JSON object (the `metrics` payload of the
    /// `tp-bench/metrics/v1` document).
    pub fn to_json(&self) -> Json {
        let hists = self.distributions().map(|(name, h)| (name, h.to_json()));
        let counters = [
            ("reconv_unmapped", self.reconv_unmapped.get()),
            ("window_peak", self.window_peak.max()),
            ("traces_dispatched", self.traces_dispatched.get()),
            ("traces_retired", self.traces_retired.get()),
            ("traces_squashed", self.traces_squashed.get()),
            ("traces_repaired", self.traces_repaired.get()),
            ("traces_preserved", self.traces_preserved.get()),
            ("traces_redispatched", self.traces_redispatched.get()),
            ("mispredicts", self.mispredicts.get()),
            ("recoveries_started", self.recoveries_started.get()),
            ("recoveries_applied", self.recoveries_applied.get()),
            ("recoveries_abandoned", self.recoveries_abandoned.get()),
            ("cgci_opened", self.cgci_opened.get()),
            ("cgci_closed", self.cgci_closed.get()),
        ];
        Json::obj([
            ("distributions", Json::obj(hists)),
            ("counters", Json::obj(counters.map(|(name, v)| (name, v.into())))),
        ])
    }
}

/// An [`EventSink`] deriving [`Metrics`] from the event stream.
///
/// Pure observation: attaching one never changes simulated behaviour
/// (golden statistics stay byte-identical). Open/close pairs (recovery
/// latency, trace residency) are correlated per PE; an open left dangling
/// by the end of the run is simply not counted.
pub struct MetricsSink {
    interests: CategoryMask,
    /// Static `branch_pc -> immediate post-dominator PC` map for the
    /// reconv-distance join (typically from `tp-cfg`). Empty map: every
    /// close counts as unmapped.
    ipdom: HashMap<u32, u32>,
    recovery_open: Vec<Option<u64>>,
    residency_open: Vec<Option<u64>>,
    last_mispredict: Option<u64>,
    metrics: Metrics,
}

impl Default for MetricsSink {
    fn default() -> MetricsSink {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// A sink subscribed to every category, with no ipdom map.
    pub fn new() -> MetricsSink {
        MetricsSink {
            interests: CategoryMask::ALL,
            ipdom: HashMap::new(),
            recovery_open: Vec::new(),
            residency_open: Vec::new(),
            last_mispredict: None,
            metrics: Metrics::default(),
        }
    }

    /// Supplies the static ipdom map used for the CGCI reconv-distance
    /// join.
    #[must_use]
    pub fn with_ipdom(mut self, ipdom: HashMap<u32, u32>) -> MetricsSink {
        self.ipdom = ipdom;
        self
    }

    /// Restricts the subscription to the given categories.
    #[must_use]
    pub fn with_interests(mut self, interests: CategoryMask) -> MetricsSink {
        self.interests = interests;
        self
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the sink, returning its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    fn slot(v: &mut Vec<Option<u64>>, pe: u8) -> &mut Option<u64> {
        let pe = pe as usize;
        if v.len() <= pe {
            v.resize(pe + 1, None);
        }
        &mut v[pe]
    }

    fn close_residency(&mut self, cycle: u64, pe: u8) {
        if let Some(opened) = Self::slot(&mut self.residency_open, pe).take() {
            self.metrics.trace_residency.record(cycle.saturating_sub(opened));
        }
    }
}

impl EventSink for MetricsSink {
    fn interests(&self) -> CategoryMask {
        self.interests
    }

    fn record(&mut self, cycle: u64, event: &Event) {
        let m = &mut self.metrics;
        match *event {
            Event::TraceDispatched { pe, .. } => {
                m.traces_dispatched.incr();
                *Self::slot(&mut self.residency_open, pe) = Some(cycle);
            }
            Event::TraceRetired { pe, .. } => {
                m.traces_retired.incr();
                self.close_residency(cycle, pe);
            }
            Event::TraceSquashed { pe, drained, .. } => {
                if drained {
                    // Run-end synthetic close: drop the span, it measures
                    // where the run stopped, not a residency lifetime.
                    Self::slot(&mut self.residency_open, pe).take();
                } else {
                    m.traces_squashed.incr();
                    self.close_residency(cycle, pe);
                }
            }
            Event::TraceRepaired { .. } => m.traces_repaired.incr(),
            Event::TracePreserved { .. } => m.traces_preserved.incr(),
            Event::TraceRedispatched { .. } => m.traces_redispatched.incr(),
            Event::TraceFetched { .. } => {}
            Event::MispredictDetected { .. } => {
                m.mispredicts.incr();
                if let Some(prev) = self.last_mispredict {
                    m.mispredict_interarrival.record(cycle.saturating_sub(prev));
                }
                self.last_mispredict = Some(cycle);
            }
            Event::RecoveryStarted { pe, .. } => {
                m.recoveries_started.incr();
                *Self::slot(&mut self.recovery_open, pe) = Some(cycle);
            }
            Event::RecoveryApplied { pe, .. } => {
                m.recoveries_applied.incr();
                if let Some(opened) = Self::slot(&mut self.recovery_open, pe).take() {
                    m.recovery_latency.record(cycle.saturating_sub(opened));
                }
            }
            Event::RecoveryAbandoned { pe } => {
                m.recoveries_abandoned.incr();
                if let Some(opened) = Self::slot(&mut self.recovery_open, pe).take() {
                    m.recovery_latency.record(cycle.saturating_sub(opened));
                }
            }
            Event::CgciOpened { .. } => m.cgci_opened.incr(),
            Event::CgciClosed { branch_pc, reconv_pc, .. } => {
                m.cgci_closed.incr();
                match self.ipdom.get(&branch_pc) {
                    Some(&ipdom) => m.reconv_distance.record(u64::from(reconv_pc.abs_diff(ipdom))),
                    None => m.reconv_unmapped.incr(),
                }
            }
            Event::HeadStall { .. } => {}
            Event::WindowSample { occupied, fetch_queue } => {
                m.window_occupancy.record(u64::from(occupied));
                m.fetch_queue_depth.record(u64::from(fetch_queue));
                m.window_peak.set(u64::from(occupied));
            }
            Event::IssueSample { issued, .. } => m.issue_width.record(u64::from(issued)),
            Event::BusSample { bus, waiting, .. } => match bus {
                BusChannel::Cache => m.cache_bus_waiting.record(u64::from(waiting)),
                BusChannel::Result => m.result_bus_waiting.record(u64::from(waiting)),
            },
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_events::{Category, EventBus, MispredictKind};

    #[test]
    fn residency_and_recovery_latency_pairing() {
        let mut bus = EventBus::new();
        bus.attach(Box::new(MetricsSink::new()));
        assert!(bus.wants(Category::Trace));

        bus.emit(10, Event::TraceDispatched { pe: 2, pc: 0, len: 4, cgci_insert: false });
        bus.emit(25, Event::TraceRetired { pe: 2, pc: 0, len: 4 });
        bus.emit(30, Event::TraceDispatched { pe: 2, pc: 8, len: 4, cgci_insert: false });
        bus.emit(34, Event::TraceSquashed { pe: 2, pc: 8, drained: false });
        // Drained close: span dropped.
        bus.emit(40, Event::TraceDispatched { pe: 3, pc: 16, len: 4, cgci_insert: false });
        bus.emit(90, Event::TraceSquashed { pe: 3, pc: 16, drained: true });

        bus.emit(
            50,
            Event::RecoveryStarted { pe: 1, branch_pc: 7, plan: tp_events::RecoveryPlan::Fgci },
        );
        bus.emit(
            57,
            Event::RecoveryApplied {
                pe: 1,
                branch_pc: 7,
                branch_idx: 0,
                id_branches: 0,
                fallback: false,
            },
        );

        let sink = bus.take::<MetricsSink>().expect("attached above");
        let m = sink.metrics();
        assert_eq!(m.trace_residency.count(), 2);
        assert_eq!(m.trace_residency.sum(), (25 - 10) + (34 - 30));
        assert_eq!(m.traces_squashed.get(), 1, "drained close is not a squash");
        assert_eq!(m.recovery_latency.count(), 1);
        assert_eq!(m.recovery_latency.max(), 7);
    }

    #[test]
    fn reconv_distance_joins_against_ipdom_map() {
        let mut sink = MetricsSink::new().with_ipdom(HashMap::from([(100, 140)]));
        let close = |branch_pc, reconv_pc| Event::CgciClosed {
            class: tp_stats::BranchClass::ForwardOther,
            heuristic: tp_stats::Heuristic::Ret,
            outcome: tp_stats::RecoveryOutcome::CgciReconverged,
            squashed: 0,
            preserved: 1,
            branch_pc,
            reconv_pc,
        };
        sink.record(5, &close(100, 140)); // exact: distance 0
        sink.record(9, &close(100, 150)); // overshoot: distance 10
        sink.record(12, &close(999, 10)); // unmapped branch
        let m = sink.metrics();
        assert_eq!(m.reconv_distance.count(), 2);
        assert_eq!(m.reconv_distance.min(), 0);
        assert_eq!(m.reconv_distance.max(), 10);
        assert_eq!(m.reconv_unmapped.get(), 1);
        assert_eq!(m.reconv_distance.count() + m.reconv_unmapped.get(), m.cgci_closed.get());
    }

    #[test]
    fn mispredict_interarrival() {
        let mut sink = MetricsSink::new();
        for cycle in [100u64, 130, 131] {
            sink.record(
                cycle,
                &Event::MispredictDetected {
                    pe: 0,
                    slot: 0,
                    pc: 4,
                    kind: MispredictKind::CondBranch,
                },
            );
        }
        let m = sink.metrics();
        assert_eq!(m.mispredict_interarrival.count(), 2);
        assert_eq!(m.mispredict_interarrival.max(), 30);
        assert_eq!(m.mispredict_interarrival.min(), 1);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        let mut whole = Metrics::default();
        for v in 0..100u64 {
            whole.window_occupancy.record(v % 17);
            if v < 40 { &mut a } else { &mut b }.window_occupancy.record(v % 17);
        }
        a.merge(&b);
        assert_eq!(a.window_occupancy, whole.window_occupancy);
        assert_eq!(a.window_occupancy.p99(), whole.window_occupancy.p99());
    }
}
