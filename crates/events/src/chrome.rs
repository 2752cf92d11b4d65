//! Chrome trace-event JSON sink: loads directly in perfetto or
//! `chrome://tracing`.
//!
//! Mapping (rows are [`Json`] values, rendered by `tp_stats::json`):
//!
//! * one *pid* per processing element (pid = PE index + 1), named
//!   `PE <n>` via process-name metadata;
//! * trace residency as `B`/`E` duration events on the PE's track,
//!   opened by `TraceDispatched` and closed by `TraceRetired` /
//!   `TraceSquashed`;
//! * squash / repair / mispredict / recovery / stall moments as `i`
//!   instant events on the owning PE's track;
//! * CGCI attempts as `B`/`E` spans on a dedicated `cgci` pid;
//! * fetch activity as instants on a dedicated `fetch` pid;
//! * window pressure, issue activity, and bus contention as `C` counter
//!   tracks on a dedicated `counters` pid.
//!
//! Timestamps are simulated cycles reported as microseconds (1 cycle =
//! 1us), so perfetto's time axis reads directly as cycles.

use std::any::Any;

use tp_stats::Json;

use crate::bus::EventSink;
use crate::event::{CategoryMask, Event};

/// pid hosting fetch-activity instants.
const FETCH_PID: u64 = 100;
/// pid hosting CGCI attempt spans.
const CGCI_PID: u64 = 101;
/// pid hosting the counter tracks.
const COUNTER_PID: u64 = 102;
/// pid hosting sampling-phase markers (detailed-interval stamps).
const SAMPLE_PID: u64 = 103;

/// The Chrome trace-event sink. Collects event rows;
/// [`ChromeTraceSink::into_json`] wraps them into the final document.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<Json>,
    /// Per-PE open residency span: (start cycle, trace start PC).
    open: Vec<Option<(u64, u32)>>,
    /// The open CGCI attempt span, if any (at most one attempt pends).
    cgci_open: bool,
    /// Offset added to every timestamp ([`ChromeTraceSink::set_base`]).
    base: u64,
    /// Whether any interval marker was stamped (adds the sampling pid's
    /// metadata row).
    sampled: bool,
}

impl ChromeTraceSink {
    /// A fresh sink (subscribes to every category).
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// Number of trace-event objects collected so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Sets the timeline base: every subsequent timestamp (event cycles
    /// and interval markers) is reported as `base + cycle`. A sampled run
    /// reuses one sink across detailed intervals, each of which restarts
    /// its simulator at cycle 0; advancing the base between intervals
    /// lays them out on one coherent global timeline instead of
    /// overlapping at t=0.
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    /// The current timeline base.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Stamps a detailed-interval marker at the current base: an instant
    /// on a dedicated `sampling` track carrying the interval index and
    /// the retired-instruction offset where the interval started.
    pub fn mark_interval(&mut self, index: u64, start_retired: u64) {
        self.sampled = true;
        let ts = self.base;
        let args = [("interval", index.into()), ("start_retired", start_retired.into())];
        self.emit("i", ts, SAMPLE_PID, &format!("interval {index}"), args);
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Collects one trace-event row: phase `ph` at `ts` on `pid`'s track,
    /// carrying `name` (span ends pass `""` and carry none) and `args`;
    /// instants are thread-scoped.
    fn emit<'a>(
        &mut self,
        ph: &str,
        ts: u64,
        pid: u64,
        name: &str,
        args: impl IntoIterator<Item = (&'a str, Json)>,
    ) {
        let mut row = Vec::with_capacity(7);
        if !name.is_empty() {
            row.push(("name", name.into()));
        }
        row.push(("ph", ph.into()));
        if ph == "i" {
            row.push(("s", "t".into()));
        }
        row.extend([("ts", ts.into()), ("pid", pid.into()), ("tid", 0u64.into())]);
        row.push(("args", Json::obj(args)));
        self.events.push(Json::obj(row));
    }

    fn pe_pid(pe: u8) -> u64 {
        pe as u64 + 1
    }

    fn open_slot(&mut self, pe: u8) -> &mut Option<(u64, u32)> {
        let i = pe as usize;
        if self.open.len() <= i {
            self.open.resize(i + 1, None);
        }
        &mut self.open[i]
    }

    /// The collected events as a complete Chrome trace-event JSON
    /// document (object form, `traceEvents` array). Process-name metadata
    /// rows lead the array so every pid is labelled.
    pub fn into_json(mut self) -> Json {
        let mut tracks: Vec<(u64, String)> =
            (0..self.open.len()).map(|pe| (Self::pe_pid(pe as u8), format!("PE {pe}"))).collect();
        tracks.extend(
            [(FETCH_PID, "fetch"), (CGCI_PID, "cgci"), (COUNTER_PID, "counters")]
                .map(|(pid, name)| (pid, name.to_string())),
        );
        if self.sampled {
            tracks.push((SAMPLE_PID, "sampling".into()));
        }
        let events = std::mem::take(&mut self.events);
        for (pid, name) in tracks {
            self.emit("M", 0, pid, "process_name", [("name", name.into())]);
        }
        self.events.extend(events);
        Json::obj([("displayTimeUnit", "ms".into()), ("traceEvents", Json::Arr(self.events))])
    }
}

impl EventSink for ChromeTraceSink {
    fn interests(&self) -> CategoryMask {
        CategoryMask::ALL
    }

    fn record(&mut self, cycle: u64, event: &Event) {
        // All timestamps are offset by the timeline base (zero unless a
        // sampled capture laid intervals end to end).
        let cycle = self.base + cycle;
        match *event {
            Event::TraceFetched { pc, len, source } => {
                let name = format!("fetch {}", source.label());
                self.emit("i", cycle, FETCH_PID, &name, [("pc", pc.into()), ("len", len.into())]);
            }
            Event::TraceDispatched { pe, pc, len, cgci_insert } => {
                if self.open_slot(pe).take().is_some() {
                    // A dangling span means a missed close upstream; end
                    // it so the B/E stream stays balanced regardless.
                    self.emit("E", cycle, Self::pe_pid(pe), "", []);
                }
                *self.open_slot(pe) = Some((cycle, pc));
                let args =
                    [("pc", pc.into()), ("len", len.into()), ("cgci_insert", cgci_insert.into())];
                self.emit("B", cycle, Self::pe_pid(pe), &format!("trace@{pc}"), args);
            }
            Event::TraceRetired { pe, pc, len } => {
                if self.open_slot(pe).take().is_some() {
                    let args = [("end", "retired".into()), ("pc", pc.into()), ("len", len.into())];
                    self.emit("E", cycle, Self::pe_pid(pe), "", args);
                }
            }
            Event::TraceSquashed { pe, pc, drained } => {
                if self.open_slot(pe).take().is_some() {
                    let kind = if drained { "drained" } else { "squashed" };
                    let args = [("end", kind.into()), ("pc", pc.into())];
                    self.emit("E", cycle, Self::pe_pid(pe), "", args);
                }
                if !drained {
                    self.emit("i", cycle, Self::pe_pid(pe), "squash", [("pc", pc.into())]);
                }
            }
            Event::TraceRepaired { pe, branch_pc } => {
                let args = [("branch_pc", branch_pc.into())];
                self.emit("i", cycle, Self::pe_pid(pe), "repair", args);
            }
            Event::TracePreserved { pe, pc } => {
                self.emit("i", cycle, Self::pe_pid(pe), "preserved", [("pc", pc.into())]);
            }
            Event::TraceRedispatched { pe, pc } => {
                self.emit("i", cycle, Self::pe_pid(pe), "redispatch", [("pc", pc.into())]);
            }
            Event::MispredictDetected { pe, slot, pc, kind } => {
                let name = format!("mispredict {}", kind.label());
                let args = [("pc", pc.into()), ("slot", slot.into())];
                self.emit("i", cycle, Self::pe_pid(pe), &name, args);
            }
            Event::RecoveryStarted { pe, branch_pc, plan } => {
                let name = format!("recovery {}", plan.label());
                self.emit("i", cycle, Self::pe_pid(pe), &name, [("branch_pc", branch_pc.into())]);
            }
            Event::RecoveryApplied { pe, branch_pc, .. } => {
                let args = [("branch_pc", branch_pc.into())];
                self.emit("i", cycle, Self::pe_pid(pe), "recovery apply", args);
            }
            Event::RecoveryAbandoned { pe } => {
                self.emit("i", cycle, Self::pe_pid(pe), "recovery abandoned", []);
            }
            Event::CgciOpened { class, heuristic, branch_pc, reconv_pc } => {
                if self.cgci_open {
                    self.emit("E", cycle, CGCI_PID, "", []);
                }
                self.cgci_open = true;
                let name = format!("cgci {}/{}", class.label(), heuristic.label());
                let args = [("branch_pc", branch_pc.into()), ("reconv_pc", reconv_pc.into())];
                self.emit("B", cycle, CGCI_PID, &name, args);
            }
            Event::CgciClosed { outcome, squashed, preserved, .. } => {
                if self.cgci_open {
                    self.cgci_open = false;
                    let args = [
                        ("outcome", outcome.label().into()),
                        ("squashed", squashed.into()),
                        ("preserved", preserved.into()),
                    ];
                    self.emit("E", cycle, CGCI_PID, "", args);
                }
            }
            Event::HeadStall { pe, reason } => {
                let name = format!("stall {}", reason.label());
                self.emit("i", cycle, Self::pe_pid(pe), &name, []);
            }
            Event::WindowSample { occupied, fetch_queue } => {
                let args = [("occupied", occupied.into()), ("fetch_queue", fetch_queue.into())];
                self.emit("C", cycle, COUNTER_PID, "window", args);
            }
            Event::IssueSample { issued, reissued } => {
                let args = [("issued", issued.into()), ("reissued", reissued.into())];
                self.emit("C", cycle, COUNTER_PID, "issue", args);
            }
            Event::BusSample { bus, waiting, granted } => {
                let name = format!("bus-{}", bus.label());
                let args = [("waiting", waiting.into()), ("granted", granted.into())];
                self.emit("C", cycle, COUNTER_PID, &name, args);
            }
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
    use crate::event::FetchPath;

    /// The rendered document's `traceEvents`, read back through the parser.
    fn rows(sink: ChromeTraceSink) -> Vec<Json> {
        let doc = tp_stats::json::parse(&sink.into_json().to_string()).expect("valid json");
        assert_eq!(doc.str("displayTimeUnit"), Some("ms"));
        doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array").to_vec()
    }

    fn count(rows: &[Json], key: &str, value: &str) -> usize {
        rows.iter().filter(|r| r.str(key) == Some(value)).count()
    }

    fn args<'a>(row: &'a Json, key: &str) -> Option<&'a Json> {
        row.get("args")?.get(key)
    }

    #[test]
    fn spans_balance_and_document_is_wellformed() {
        let mut sink = ChromeTraceSink::new();
        sink.record(1, &Event::TraceFetched { pc: 4, len: 6, source: FetchPath::PredictedHit });
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        sink.record(5, &Event::TraceRetired { pe: 0, pc: 4, len: 6 });
        sink.record(6, &Event::TraceDispatched { pe: 1, pc: 10, len: 3, cgci_insert: true });
        sink.record(9, &Event::TraceSquashed { pe: 1, pc: 10, drained: false });
        sink.record(9, &Event::WindowSample { occupied: 2, fetch_queue: 1 });
        let rows = rows(sink);
        assert_eq!(count(&rows, "ph", "B"), 2);
        assert_eq!(count(&rows, "ph", "E"), 2);
        assert_eq!(count(&rows, "name", "squash"), 1);
        let pe1 = rows.iter().find(|r| args(r, "name").and_then(Json::as_str) == Some("PE 1"));
        assert_eq!(pe1.and_then(|r| r.get("pid")).and_then(Json::as_u64), Some(2));
        let retired =
            rows.iter().find(|r| args(r, "end").and_then(Json::as_str) == Some("retired"));
        assert_eq!(retired.and_then(|r| args(r, "len")).and_then(Json::as_u64), Some(6));
        let window = rows.iter().find(|r| r.str("name") == Some("window")).expect("counter row");
        assert_eq!(window.str("ph"), Some("C"));
        assert_eq!(args(window, "occupied").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn retire_without_open_span_is_dropped_not_unbalanced() {
        let mut sink = ChromeTraceSink::new();
        sink.record(3, &Event::TraceRetired { pe: 2, pc: 8, len: 2 });
        assert_eq!(count(&rows(sink), "ph", "E"), 0);
    }

    #[test]
    fn base_offsets_timestamps_and_interval_marks() {
        let mut sink = ChromeTraceSink::new();
        sink.mark_interval(0, 0);
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        sink.record(5, &Event::TraceRetired { pe: 0, pc: 4, len: 6 });
        sink.set_base(1_000);
        sink.mark_interval(1, 5_000);
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        let rows = rows(sink);
        // Second interval's dispatch lands at base + cycle, not back at 2.
        let begins: Vec<u64> = rows
            .iter()
            .filter(|r| r.str("ph") == Some("B"))
            .filter_map(|r| r.get("ts")?.as_u64())
            .collect();
        assert_eq!(begins, [2, 1002]);
        let mark = rows.iter().find(|r| r.str("name") == Some("interval 1")).expect("marker");
        assert_eq!(args(mark, "interval").and_then(Json::as_u64), Some(1));
        assert_eq!(args(mark, "start_retired").and_then(Json::as_u64), Some(5000));
        assert!(rows.iter().any(|r| args(r, "name").and_then(Json::as_str) == Some("sampling")));
    }
}
