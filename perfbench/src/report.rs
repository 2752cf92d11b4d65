//! Metric computation and output: the human-readable report lines and the
//! final one-line JSON result.

use std::fmt::Write as _;

use tp_metrics::Stage;

use crate::calib::Calibrator;
use crate::cases::{Case, Counts, Kind, Setup, COUNT_NAMES};
use crate::tracer::Tracer;
use crate::Tally;

/// Median of `v` (zero when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => f64::midpoint(s[n / 2 - 1], s[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; the maximum (percentile 100) with fewer than
/// eleven samples.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 100.0),
        1..=10 => (s[n - 1], 100.0),
        _ => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `(workload, model)` rows of the checked-in `BENCH_speed.json`
/// (16-PE cells): retired instructions and cycles.
pub struct BenchSpeed {
    rows: Vec<(String, String, u64, u64)>,
}

impl BenchSpeed {
    /// Reads `BENCH_speed.json` from the repository root.
    pub fn load() -> Result<BenchSpeed, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_speed.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = tp_bench::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let cells = doc.get("cells").and_then(|c| c.as_array()).ok_or("no cells array")?;
        let rows = cells
            .iter()
            .filter(|c| c.num("pes") == Some(16.0))
            .filter_map(|c| {
                Some((
                    c.str("workload")?.to_string(),
                    c.str("model")?.to_string(),
                    c.get("instrs")?.as_u64()?,
                    c.get("cycles")?.as_u64()?,
                ))
            })
            .collect();
        Ok(BenchSpeed { rows })
    }

    /// Detailed cells whose retired count or cycles differ from their
    /// `BENCH_speed.json` row (or have none), with a line per mismatch.
    fn mismatches(&self, cases: &[Case], tally: &Tally) -> (u64, Vec<String>) {
        let mut out = Vec::new();
        for (case, first) in cases.iter().zip(&tally.first) {
            let (Case::Detailed { name, model, .. }, Some(r)) = (case, first) else { continue };
            let (instrs, cycles) =
                (r.counts.get("core.retired_instrs"), r.counts.get("core.cycles"));
            let row = self.rows.iter().find(|(w, m, ..)| w == name && m == model.name());
            match row {
                Some(&(_, _, i, c)) if i == instrs && c == cycles => {}
                Some(&(_, _, i, c)) => out.push(format!(
                    "{}: instrs {instrs} cycles {cycles}, BENCH_speed.json has {i} and {c}",
                    case.label()
                )),
                None => out.push(format!("{}: no BENCH_speed.json row", case.label())),
            }
        }
        (out.len() as u64, out)
    }
}

/// The timed phases of one invocation.
pub struct Run {
    /// The untraced phase (with `--trace 1`: exactly one pass).
    pub untraced: Tally,
    /// With `--trace 1`: one traced pass and its recorder.
    pub traced: Option<(Tally, Tracer)>,
}

/// Set-up timings, one entry per repetition.
pub struct SetupTimes {
    /// Whole set-up seconds.
    pub total: Vec<f64>,
    /// Program-build seconds (`tp-workloads`).
    pub build: Vec<f64>,
    /// Reference-result seconds.
    pub reference: Vec<f64>,
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints the report and returns the final JSON line.
pub fn finish(
    kind: Kind,
    setup: &Setup,
    times: &SetupTimes,
    cal: &Calibrator,
    run: Run,
    bench_speed: &BenchSpeed,
) -> String {
    let Run { untraced, traced } = run;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    if let Some((t, _)) = &traced {
        attempted += t.attempted;
        failed += t.failed;
        for ((a, b), case) in untraced.first.iter().zip(&t.first).zip(&setup.cases) {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    failed += 1;
                    println!("FAIL {}: traced run changed the simulated counts", case.label());
                }
            }
        }
    }
    let fail_frac = ratio(failed as f64, attempted as f64);
    let slowdown = cal.slowdown();
    let setup_raw = median(&times.total);
    let setup_s = setup_raw / slowdown;
    let samples: usize = untraced.samples.iter().map(Vec::len).sum();
    let ips_raw = untraced.instrs_per_s();
    let instrs_per_s = ips_raw * slowdown;
    let heap = untraced.peak_heap_mb;
    let counts = untraced.counts();
    let (mismatch, mismatch_lines) = bench_speed.mismatches(&setup.cases, &untraced);

    println!(
        "host slowdown = {slowdown:.4} (calibration kernel, median of {} samples); end-to-end \
         timings below are scaled by it, raw values in brackets",
        cal.samples()
    );
    println!(
        "setup_s = {setup_s:.4} s [{setup_raw:.4} s] (median of {} set-ups: build {:.4} s, \
         reference {:.4} s)",
        times.total.len(),
        median(&times.build),
        median(&times.reference)
    );
    if setup.skipped > 0 {
        println!("set-up passed over {} fuzz programs that ran past the budget", setup.skipped);
    }
    println!(
        "instrs_per_s = {instrs_per_s:.0} instr/s [{ips_raw:.0}] ({samples} timed operations \
         over {} cases, per-case median time)",
        setup.cases.len()
    );
    println!(
        "peak_heap_mb = {heap:.3} MiB (live heap high-water mark during the operations; \
         resident high-water mark {:.1} MiB)",
        peak_rss_mb()
    );
    println!("fail_frac = {fail_frac} ({failed} of {attempted} operations failed)");
    println!("pass_frac = {}", 1.0 - fail_frac);
    println!("simulated counts, one pass:");
    for (name, v) in COUNT_NAMES.iter().zip(counts.0) {
        println!("  {name} = {v}");
    }
    if matches!(kind, Kind::DetailedRecovery | Kind::DetailedSteady) {
        println!(
            "core.cycles_mismatch_cells = {mismatch} (against BENCH_speed.json, reported only)"
        );
        for l in &mismatch_lines {
            println!("  {l}");
        }
    }

    let mut m = Metrics(Vec::new());
    match &traced {
        None => {
            m.put("instrs_per_s", instrs_per_s, "instr/s");
            m.put("setup_s", setup_s, "s");
            m.put("peak_heap_mb", heap, "MiB");
            m.put("pass_frac", 1.0 - fail_frac, "frac");
        }
        Some((t, tr)) => {
            layers(&mut m, &untraced, t, tr, &counts, times);
            m.put("core.cycles_mismatch_cells", mismatch as f64, "count");
            m.put("fail_frac", fail_frac, "frac");
            print_trace(tr, &m);
            write_spans(kind, tr);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.json()
    )
}

/// The per-layer metrics of a traced pass. Each ratio is reported next to
/// its base.
fn layers(
    m: &mut Metrics,
    untraced: &Tally,
    traced: &Tally,
    tr: &Tracer,
    counts: &Counts,
    times: &SetupTimes,
) {
    let wall = traced.wall_s;
    let run_s = tr.total_s("core.run_interval");
    let boot_s = tr.total_s("core.from_checkpoint");
    let new_s = tr.total_s("core.new") + boot_s;
    let new_calls = tr.count("core.new") + tr.count("core.from_checkpoint");
    m.put("core.run_s", run_s, "s");
    m.put("core.new_us", ratio(new_s * 1e6, new_calls as f64), "us");
    m.put("core.new_calls", new_calls as f64, "count");
    m.put("core.new_share", ratio(new_s, wall), "frac");
    m.put("core.ns_per_cycle", ratio(run_s * 1e9, counts.get("core.cycles") as f64), "ns");
    let traces = counts.get("core.dispatched_traces") as f64;
    m.put("core.ns_per_dispatched_trace", ratio(run_s * 1e9, traces), "ns");
    let stage_total: u64 = tr.stage_nanos().iter().sum();
    for (stage, ns) in Stage::ALL.iter().zip(tr.stage_nanos()) {
        let share = ratio(*ns as f64, stage_total as f64);
        m.put(format!("core.stage.{}.share", stage.label()), share, "frac");
    }
    m.put("core.stage.total_s", stage_total as f64 * 1e-9, "s");
    m.put("core.index_entries_max", tr.index_entries_max() as f64, "count");
    for (name, v) in COUNT_NAMES.iter().zip(counts.0) {
        m.put(*name, v as f64, "count");
    }

    let roundtrip_s = tr.total_s("ckpt.roundtrip");
    let handback_s = tr.total_s("ckpt.handback");
    let ffwd_s = tr.total_s("ckpt.ffwd");
    let ffwd_instrs = tr.counter("ckpt.ffwd_instrs") as f64;
    m.put("ckpt.roundtrip_s", roundtrip_s, "s");
    m.put("ckpt.roundtrips", tr.count("ckpt.roundtrip") as f64, "count");
    m.put("ckpt.bytes", tr.counter("ckpt.bytes") as f64, "B");
    m.put("ckpt.boot_s", boot_s, "s");
    m.put("ckpt.handback_s", handback_s, "s");
    m.put("ckpt.ffwd_s", ffwd_s, "s");
    m.put("ckpt.ffwd_instrs", ffwd_instrs, "count");
    m.put("ckpt.ffwd_instrs_per_s", ratio(ffwd_instrs, ffwd_s), "instr/s");
    m.put("ckpt.share", ratio(roundtrip_s + boot_s + handback_s + ffwd_s, wall), "frac");
    m.put("sampled.detail_s", tr.total_s("sampled.detail"), "s");
    let rounds = tr.durations_ms("sampled.round");
    m.put("sampled.rounds", rounds.len() as f64, "count");
    m.put("sampled.round_ms_p50", median(&rounds), "ms");
    m.put("sampled.round_ms_tail", tail(&rounds).0, "ms");

    let programs = tr.durations_ms("fuzz.program");
    m.put("fuzz.gen_s", tr.total_s("fuzz.gen"), "s");
    m.put("fuzz.emit_s", tr.total_s("fuzz.emit"), "s");
    m.put("isa.func_s", tr.total_s("isa.func"), "s");
    m.put("fuzz.programs", programs.len() as f64, "count");
    m.put("fuzz.program_ms_p50", median(&programs), "ms");
    m.put("fuzz.program_ms_tail", tail(&programs).0, "ms");

    m.put("workloads.build_s", median(&times.build), "s");
    m.put("setup.reference_s", median(&times.reference), "s");
    m.put("trace_overhead_frac", ratio(wall, untraced.wall_s) - 1.0, "frac");
    m.put("run.untraced_s", untraced.wall_s, "s");
    m.put("run.traced_s", wall, "s");
}

fn print_trace(tr: &Tracer, m: &Metrics) {
    println!("spans (calls, total s, self s):");
    for (name, (calls, total, own)) in tr.summary() {
        println!("  {name:24} {calls:8} {total:12.6} {own:12.6}");
    }
    for name in ["sampled.round", "fuzz.program"] {
        let d = tr.durations_ms(name);
        if !d.is_empty() {
            let (v, p) = tail(&d);
            println!("  {name}: {} samples, p50 {:.4} ms, p{p:.2} {v:.4} ms", d.len(), median(&d));
        }
    }
    println!("per-layer metrics:");
    for (name, value, unit) in &m.0 {
        println!("  {name} = {value} {unit}");
    }
}

fn write_spans(kind: Kind, tr: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.spans.json", kind.name());
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_chrome_json()));
    match written {
        Ok(()) => println!("spans: {} written to {path}", tr.spans().len()),
        Err(e) => println!("spans: could not write {path}: {e}"),
    }
}
