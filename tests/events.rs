//! The `tp-events` bus contract, from the outside:
//!
//! * **Zero behavioral effect** — running the whole tiny suite under all
//!   five models with a full-interest sink attached reproduces the golden
//!   `simstats.txt` rows byte for byte. The bus observes; it never
//!   perturbs.
//! * **Residency spans balance** — every `TraceDispatched` is closed by
//!   exactly one `TraceRetired` or `TraceSquashed` (run-end residents are
//!   closed as synthetic `drained` squashes when the bus is released).
//! * **The Chrome trace document is schema-valid** — its rendering parses
//!   back as JSON (`tp_bench::json`; the build is offline), every `traceEvents`
//!   element carries the required `ph`/`ts`/`pid`/`tid` fields, `B`/`E`
//!   spans are stack-balanced per track, and timestamps are monotone
//!   per track.

use std::collections::HashMap;
use std::fmt::Write as _;

use tp_bench::json::{self, Json};

use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_events::{Category, CategoryMask, Event, RingSink};
use trace_processor::tp_workloads::{by_name, suite, Size};

const MODELS: [CiModel; 5] =
    [CiModel::None, CiModel::Ret, CiModel::MlbRet, CiModel::Fg, CiModel::FgMlbRet];

/// Attaching a sink must not move a single counter: the tiny suite under
/// all five models, with a full-interest ring attached, must match the
/// golden `simstats.txt` fixture byte for byte.
#[test]
fn attached_bus_leaves_golden_simstats_rows_byte_identical() {
    let mut actual = String::new();
    for w in suite(Size::Tiny) {
        for model in MODELS {
            let cfg = TraceProcessorConfig::paper(model);
            let mut sim = TraceProcessor::new(&w.program, cfg);
            sim.attach_event_sink(Box::new(RingSink::new(4_096)));
            assert!(sim.events_attached());
            let r = sim.run(5_000_000).unwrap_or_else(|e| panic!("{} {model:?}: {e}", w.name));
            assert!(r.halted, "{} {model:?} did not halt", w.name);
            let _ = writeln!(actual, "{} {model:?} {:?}", w.name, r.stats);
        }
    }
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simstats.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"));
    assert_eq!(
        golden, actual,
        "attaching an event sink changed simulator behaviour — the bus must be observation-only"
    );
}

/// Every dispatched trace is closed by exactly one retire or squash, and
/// releasing the bus drains still-resident traces so the books always
/// balance — across models with very different squash/preserve behaviour.
#[test]
fn every_dispatch_is_closed_exactly_once() {
    for (name, model) in [
        ("compress", CiModel::None),
        ("go", CiModel::MlbRet),
        ("li", CiModel::Fg),
        ("go", CiModel::FgMlbRet),
    ] {
        let w = by_name(name, Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(model);
        let mut sim = TraceProcessor::new(&w.program, cfg);
        sim.attach_event_sink(Box::new(RingSink::with_interests(
            1 << 22,
            CategoryMask::of(&[Category::Trace]),
        )));
        let r = sim.run(5_000_000).unwrap_or_else(|e| panic!("{name} {model:?}: {e}"));
        assert!(r.halted, "{name} {model:?} did not halt");
        let mut bus = sim.release_event_bus();
        let ring = bus.take::<RingSink>().expect("ring sink attached above");
        assert_eq!(ring.dropped(), 0, "{name} {model:?}: ring overflowed; grow the capacity");

        let mut open: HashMap<u8, u32> = HashMap::new();
        let (mut dispatched, mut retired, mut squashed, mut drained) = (0u64, 0u64, 0u64, 0u64);
        for &(cycle, event) in ring.events() {
            match event {
                Event::TraceDispatched { pe, pc, .. } => {
                    dispatched += 1;
                    assert_eq!(
                        open.insert(pe, pc),
                        None,
                        "{name} {model:?}: dispatch into occupied PE {pe} at cycle {cycle}"
                    );
                }
                Event::TraceRetired { pe, pc, .. } => {
                    retired += 1;
                    assert_eq!(
                        open.remove(&pe),
                        Some(pc),
                        "{name} {model:?}: retire without matching dispatch on PE {pe} at \
                         cycle {cycle}"
                    );
                }
                Event::TraceSquashed { pe, pc, drained: d } => {
                    squashed += 1;
                    drained += u64::from(d);
                    assert_eq!(
                        open.remove(&pe),
                        Some(pc),
                        "{name} {model:?}: squash without matching dispatch on PE {pe} at \
                         cycle {cycle}"
                    );
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{name} {model:?}: unclosed residency spans: {open:?}");
        assert_eq!(dispatched, retired + squashed, "{name} {model:?}: span books out of balance");
        assert_eq!(
            retired + squashed - drained,
            r.stats.retired_traces + r.stats.squashed_traces,
            "{name} {model:?}: span closes disagree with SimStats"
        );
    }
}

/// The Chrome trace-event document parses as JSON and satisfies the
/// trace-event schema: required fields on every row, stack-balanced
/// `B`/`E` spans, and monotone timestamps per (pid, tid) track.
#[test]
fn chrome_trace_document_is_schema_valid() {
    let w = by_name("go", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let cap = tp_bench::capture_program(&w.program, cfg, 20_000);
    assert!(cap.error.is_none(), "{:?}", cap.error);

    let text = cap.chrome_json.to_string();
    let doc = json::parse(&text).expect("the Chrome trace document is valid JSON");
    let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(rows.len() > 100, "suspiciously small capture: {} rows", rows.len());

    // (pid, tid) -> (open B count, last ts seen on the track).
    let mut tracks: HashMap<(u64, u64), (u64, f64)> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let ph = row.get("ph").and_then(Json::as_str).unwrap_or_else(|| panic!("row {i}: ph"));
        let ts = row.get("ts").and_then(Json::as_f64).unwrap_or_else(|| panic!("row {i}: ts"));
        let pid = row.get("pid").and_then(Json::as_u64).unwrap_or_else(|| panic!("row {i}: pid"));
        let tid = row.get("tid").and_then(Json::as_u64).unwrap_or_else(|| panic!("row {i}: tid"));
        assert!(ts >= 0.0, "row {i}: negative ts");
        assert!(
            matches!(ph, "M" | "B" | "E" | "i" | "C"),
            "row {i}: unexpected phase {ph:?} (pid {pid})"
        );
        // Instants must carry a scope; named phases must carry a name.
        if ph == "i" {
            assert_eq!(row.get("s").and_then(Json::as_str), Some("t"), "row {i}: instant scope");
        }
        if ph != "E" {
            assert!(row.get("name").and_then(Json::as_str).is_some(), "row {i}: missing name");
        }
        if ph == "M" {
            continue; // metadata rows sit at ts 0, outside the timeline.
        }
        let (depth, last_ts) = tracks.entry((pid, tid)).or_insert((0, 0.0));
        assert!(
            ts >= *last_ts,
            "row {i}: ts {ts} < {last_ts} on track (pid {pid}, tid {tid}) — not monotone"
        );
        *last_ts = ts;
        match ph {
            "B" => *depth += 1,
            "E" => {
                assert!(*depth > 0, "row {i}: E without open B on track (pid {pid}, tid {tid})");
                *depth -= 1;
            }
            _ => {}
        }
    }
    for ((pid, tid), (depth, _)) in tracks {
        assert_eq!(depth, 0, "unbalanced B/E spans left open on track (pid {pid}, tid {tid})");
    }
}
