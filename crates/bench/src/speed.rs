//! Wall-clock speed baseline: the document behind `tp baseline` and
//! `BENCH_speed.json`.
//!
//! The grid — the full workload suite under the complete five-model
//! control-independence matrix, optionally swept over PE counts — runs
//! through [`crate::sweep::run_grid`]; the document records, per cell,
//! the *simulated* outcome (cycles, IPC, misprediction rates —
//! machine-independent, guarded by the golden corpus), the
//! misprediction outcome-attribution ledger and next-trace predictor
//! introspection (the `tp-bench/speed/v2` additions that make per-cell
//! regressions diagnosable), and the *simulator's* throughput (wall
//! seconds, retired instructions per second — the perf trajectory the
//! ROADMAP tracks).

use tp_core::CiModel;
use tp_predict::TracePredictorStats;
use tp_stats::Json;
use tp_workloads::{all_workloads, rv_suite, suite, Size, Workload};

use crate::sweep::{CellConfig, CellRun};

/// Which workload suite a measurement grid runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteChoice {
    /// The eight synthetic SPEC95-like kernels.
    Synth,
    /// The six RV64 corpus programs.
    Rv,
    /// Both, synthetic first.
    All,
}

impl SuiteChoice {
    /// The label used in CLI parsing and reports.
    pub fn name(self) -> &'static str {
        match self {
            SuiteChoice::Synth => "synth",
            SuiteChoice::Rv => "rv",
            SuiteChoice::All => "all",
        }
    }

    /// Parses a suite label (the inverse of [`SuiteChoice::name`]).
    pub fn parse(s: &str) -> Option<SuiteChoice> {
        match s {
            "synth" => Some(SuiteChoice::Synth),
            "rv" => Some(SuiteChoice::Rv),
            "all" => Some(SuiteChoice::All),
            _ => None,
        }
    }

    /// Builds the chosen workloads at `size`.
    pub fn workloads(self, size: Size) -> Vec<Workload> {
        match self {
            SuiteChoice::Synth => suite(size),
            SuiteChoice::Rv => rv_suite(size),
            SuiteChoice::All => all_workloads(size),
        }
    }
}

/// Instruction budget per cell (workloads halt well before it).
pub const CELL_BUDGET: u64 = 100_000_000;

/// Absolute slack of the dominance guard, in cycles: recovery events cost
/// whole construction/refill latencies, so on sub-thousand-cycle runs a
/// single event exceeds 1% without meaning anything. One window-refill of
/// slack absorbs that event-granularity noise; at small/full scale (tens
/// of thousands of cycles) the 1% relative bound dominates.
pub const GUARD_SLACK_CYCLES: u64 = 64;

/// The `>1%` CI-model dominance guard: every control-independence model
/// must reach at least 99% of the base model's IPC (modulo
/// [`GUARD_SLACK_CYCLES`]) on every `(workload, PE count)` cell. Returns
/// one message per violation.
pub fn guard_violations(cells: &[CellRun]) -> Vec<String> {
    const BASE: CellConfig = CellConfig::Model(CiModel::None);
    let mut out = Vec::new();
    for c in cells {
        if !matches!(c.config, CellConfig::Model(m) if m != CiModel::None) {
            continue;
        }
        let Some(base) =
            cells.iter().find(|b| b.config == BASE && b.workload == c.workload && b.pes == c.pes)
        else {
            continue;
        };
        let (ipc, base_ipc) = (c.stats.ipc(), base.stats.ipc());
        let within_slack = c.stats.cycles <= base.stats.cycles + GUARD_SLACK_CYCLES;
        if ipc < base_ipc * 0.99 && !within_slack {
            out.push(format!(
                "{} {} {}pe: ipc {ipc:.4} loses {:.2}% to base ({base_ipc:.4})",
                c.workload,
                c.config.name(),
                c.pes,
                100.0 * (base_ipc - ipc) / base_ipc,
            ));
        }
    }
    out
}

/// The suite-size label used in JSON documents and CLI parsing.
pub fn size_name(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Full => "full",
        Size::Long => "long",
    }
}

/// Parses a suite-size label (the inverse of [`size_name`]).
pub fn parse_size(s: &str) -> Option<Size> {
    match s {
        "tiny" => Some(Size::Tiny),
        "small" => Some(Size::Small),
        "full" => Some(Size::Full),
        "long" => Some(Size::Long),
        _ => None,
    }
}

/// The next-trace predictor introspection block shared by
/// `BENCH_speed.json` cells and `tp cistats --json`.
pub fn predictor_json(p: &TracePredictorStats) -> Json {
    Json::obj([
        ("predictions", p.predictions.into()),
        ("path_hits", p.path_hits.into()),
        ("simple_hits", p.simple_hits.into()),
        ("no_prediction", p.no_prediction.into()),
        ("path_tag_evictions", p.path_tag_evictions.into()),
        ("path_repoints", p.path_repoints.into()),
        ("simple_tag_evictions", p.simple_tag_evictions.into()),
        ("simple_repoints", p.simple_repoints.into()),
    ])
}

/// The grid as the `BENCH_speed.json` document (`tp-bench/speed/v2`
/// schema; see README "Benchmarking"), with the optional `sampled`
/// section — the fast-forward throughput report of
/// [`crate::ffwd::ffwd_to_json`].
pub fn to_json(cells: &[CellRun], size: Size, sampled: Option<Json>) -> Json {
    let total_wall: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let total_instrs: u64 = cells.iter().map(|c| c.stats.retired_instrs).sum();
    let rows = cells.iter().map(|c| {
        let st = &c.stats;
        Json::obj([
            ("workload", c.workload.into()),
            ("model", c.config.name().into()),
            ("pes", c.pes.into()),
            ("instrs", st.retired_instrs.into()),
            ("cycles", st.cycles.into()),
            ("ipc", st.ipc().into()),
            ("wall_seconds", c.wall_seconds.into()),
            ("instrs_per_sec", c.instrs_per_sec().into()),
            ("branch_misp_rate_pct", st.branch_misp_rate().into()),
            ("branch_misp_per_kilo", st.branch_misp_per_kilo().into()),
            ("trace_misp_rate_pct", st.trace_misp_rate().into()),
            ("trace_misp_per_kilo", st.trace_misp_per_kilo().into()),
            ("avg_trace_len", st.avg_trace_len().into()),
            ("dispatched_traces", st.dispatched_traces.into()),
            ("squashed_traces", st.squashed_traces.into()),
            ("reissue_events", st.reissue_events.into()),
            ("predictor", predictor_json(&c.predictor)),
            ("attribution", c.attribution.to_json()),
        ])
    });
    let ips = if total_wall > 0.0 { total_instrs as f64 / total_wall } else { 0.0 };
    let mut doc = vec![
        ("schema", "tp-bench/speed/v2".into()),
        ("suite_size", size_name(size).into()),
        ("wall_seconds_total", total_wall.into()),
        ("retired_instrs_total", total_instrs.into()),
        ("instrs_per_sec_total", ips.into()),
    ];
    doc.extend(sampled.map(|s| ("sampled", s)));
    doc.push(("cells", Json::Arr(rows.collect())));
    Json::obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_cell, run_grid, Cell};
    use tp_core::SimStats;
    use tp_predict::TracePredictorStats;
    use tp_stats::RecoveryAttribution;

    fn run_tiny(models: &[CiModel], pes: &[usize]) -> Vec<CellRun> {
        let workloads = suite(Size::Tiny);
        let configs: Vec<CellConfig> = models.iter().map(|&m| CellConfig::Model(m)).collect();
        run_grid(&Cell::grid(&workloads, &configs, pes), 1, run_cell)
    }

    #[test]
    fn tiny_grid_runs_and_serializes() {
        let cells = run_tiny(&[CiModel::None, CiModel::Fg], &[16]);
        assert_eq!(cells.len(), 16, "two cells per workload");
        assert!(cells.iter().all(|c| c.stats.retired_instrs > 0 && c.stats.cycles > 0));
        let doc = crate::json::parse(&to_json(&cells, Size::Tiny, None).to_string()).unwrap();
        assert_eq!(doc.str("schema"), Some("tp-bench/speed/v2"));
        assert_eq!(doc.str("suite_size"), Some("tiny"));
        assert!(doc.get("sampled").is_none());
        let rows = doc.get("cells").and_then(Json::as_array).expect("cells array");
        // 8 workloads x 2 models, in grid order.
        assert_eq!(rows.len(), 16);
        for (row, c) in rows.iter().zip(&cells) {
            assert_eq!(row.str("workload"), Some(c.workload));
            assert_eq!(row.str("model"), Some(c.config.name()));
            assert_eq!(row.get("pes").and_then(Json::as_u64), Some(16));
            assert_eq!(row.get("cycles").and_then(Json::as_u64), Some(c.stats.cycles));
            let predictions = row.get("predictor").and_then(|p| p.get("predictions"));
            assert_eq!(predictions.and_then(Json::as_u64), Some(c.predictor.predictions));
        }
        assert!(rows.iter().any(|r| r.str("workload") == Some("compress")));
        assert!(rows.iter().any(|r| r.str("model") == Some("base")));
        // An FG cell on a branchy workload has attribution rows.
        let mut outcomes = rows
            .iter()
            .filter_map(|r| r.get("attribution")?.as_array())
            .flatten()
            .filter_map(|a| a.str("outcome"));
        assert!(outcomes.any(|o| o == "fgci-repair"));
    }

    #[test]
    fn pe_axis_produces_distinct_cells() {
        let w = "m88ksim";
        let cells: Vec<CellRun> =
            run_tiny(&[CiModel::None], &[4, 16]).into_iter().filter(|c| c.workload == w).collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].pes, 4);
        assert_eq!(cells[1].pes, 16);
        // Same committed work, different machine width.
        assert_eq!(cells[0].stats.retired_instrs, cells[1].stats.retired_instrs);
        assert_ne!(cells[0].stats.cycles, cells[1].stats.cycles);
    }

    fn cell(model: CiModel, stats: SimStats, wall_seconds: f64) -> CellRun {
        CellRun {
            workload: "x",
            config: CellConfig::Model(model),
            pes: 16,
            stats,
            attribution: RecoveryAttribution::new(),
            predictor: TracePredictorStats::default(),
            wall_seconds,
        }
    }

    #[test]
    fn guard_flags_only_losing_models() {
        let mk = |model: CiModel, cycles: u64| {
            cell(model, SimStats { retired_instrs: 1000, cycles, ..SimStats::default() }, 0.1)
        };
        // FG 2% slower than base, MLB-RET faster: only FG is flagged.
        let cells =
            vec![mk(CiModel::None, 100_000), mk(CiModel::Fg, 102_000), mk(CiModel::MlbRet, 90_000)];
        let v = guard_violations(&cells);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("FG"), "{v:?}");
        // Within 1%: not flagged.
        let cells = vec![mk(CiModel::None, 100_000), mk(CiModel::Fg, 100_900)];
        assert!(guard_violations(&cells).is_empty());
        // A large relative loss on a tiny run stays within the absolute
        // event-granularity slack: not flagged.
        let cells = vec![mk(CiModel::None, 500), mk(CiModel::Fg, 540)];
        assert!(guard_violations(&cells).is_empty());
    }

    #[test]
    fn throughput_is_positive_and_consistent() {
        let stats = SimStats { retired_instrs: 1000, cycles: 500, ..SimStats::default() };
        let c = cell(CiModel::None, stats, 0.5);
        assert!((c.instrs_per_sec() - 2000.0).abs() < 1e-9);
    }
}
