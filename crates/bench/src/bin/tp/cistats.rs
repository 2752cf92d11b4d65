//! `tp cistats`: recovery statistics and the misprediction
//! outcome-attribution ledger, per configuration, for one full-size
//! workload (default `compress`).
//!
//! With `--model` prints that cell's full attribution table, predictor
//! introspection, and per-PC misprediction provenance (which branches
//! mispredicted, and whether their wrong embedded outcome came from a
//! next-trace prediction or a BTB-driven fallback construction), rebuilt
//! from the run's `RecoveryApplied` events. Without one, prints the
//! per-model summary plus every model's table. `--json` switches the
//! single-model output to a `tp-bench/cistats/v1` document (the
//! attribution array uses the same cell schema as `BENCH_speed.json`).

use std::collections::HashMap;

use tp_bench::cli::{workload, Args, CellSpec, UsageError, MODEL, WORKLOAD};
use tp_bench::json::Json;
use tp_bench::speed::{predictor_json, CELL_BUDGET};
use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_core::TraceProcessor;
use tp_events::{Category, CategoryMask, Event, RingSink};
use tp_isa::Pc;
use tp_workloads::{Size, Workload};

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[WORKLOAD, MODEL], Size::Full)?;
    let json = args.flag("--json");
    args.finish(0)?;
    let w = workload(spec.workload.as_deref().unwrap_or("compress"), spec.size)?;
    match spec.model {
        None if json => return Err(UsageError("--json requires --model".into())),
        None => all_models(&w),
        Some(config) => one_model(&w, spec.config(config)?, json),
    }
    Ok(())
}

fn one_model(w: &Workload, config: CellConfig, json: bool) {
    let name = w.name;
    let mut sim = TraceProcessor::new(&w.program, config.config(16));
    sim.attach_event_sink(Box::new(RingSink::with_interests(
        usize::MAX,
        CategoryMask::of(&[Category::Recovery]),
    )));
    let run = sim.run(CELL_BUDGET).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(run.halted, "{name} did not halt");
    let s = run.stats;
    let p = run.predictor;
    if json {
        let doc = Json::obj([
            ("schema", "tp-bench/cistats/v1".into()),
            ("workload", name.into()),
            ("model", config.name().into()),
            ("ipc", s.ipc().into()),
            ("cycles", s.cycles.into()),
            ("retired_instrs", s.retired_instrs.into()),
            ("retired_cond_branches", s.retired_cond_branches.into()),
            ("retired_cond_mispredicts", s.retired_cond_mispredicts.into()),
            ("branch_misp_rate_pct", s.branch_misp_rate().into()),
            ("predictor", predictor_json(&p)),
            ("attribution", run.attribution.to_json()),
        ]);
        println!("{doc}");
        return;
    }
    println!(
        "{name} {}: ipc {:.3} brmisp {:.2}% ({} / {})",
        config.name(),
        s.ipc(),
        s.branch_misp_rate(),
        s.retired_cond_mispredicts,
        s.retired_cond_branches
    );
    print!("{}", run.attribution.table());
    println!(
        "predictor: {} predictions ({} path, {} simple, {} none); pollution: path {} evictions / {} repoints, simple {} / {}",
        p.predictions,
        p.path_hits,
        p.simple_hits,
        p.no_prediction,
        p.path_tag_evictions,
        p.path_repoints,
        p.simple_tag_evictions,
        p.simple_repoints,
    );
    // Per-PC provenance of confirmed mispredictions: `beyond-depth`
    // counts wrong outcomes past the predicted id's branches (BTB/
    // fallback-predicted), `fallback` those in traces built with no
    // next-trace prediction at all.
    let ring = sim.release_event_bus().take::<RingSink>().expect("ring sink attached above");
    assert_eq!(ring.dropped(), 0, "unbounded ring never drops");
    let mut per_pc: HashMap<Pc, (u64, u64, u64)> = HashMap::new();
    for (_, event) in ring.events() {
        if let Event::RecoveryApplied { branch_pc, branch_idx, id_branches, fallback, .. } = *event
        {
            let e = per_pc.entry(branch_pc).or_default();
            e.0 += 1;
            e.1 += u64::from(branch_idx >= id_branches);
            e.2 += u64::from(fallback);
        }
    }
    let mut rows: Vec<_> = per_pc.into_iter().collect();
    rows.sort_by_key(|&(pc, (n, _, _))| (std::cmp::Reverse(n), pc));
    println!("hottest mispredicting branches (confirmed recovery events):");
    let mut t =
        tp_stats::Table::new("pc", &["events", "beyond-id-depth", "in-fallback-trace", "inst"]);
    for (pc, (n, beyond, fallback)) in rows.iter().take(8) {
        t.row_text(
            format!("{pc}"),
            &[
                n.to_string(),
                beyond.to_string(),
                fallback.to_string(),
                format!("{:?}", w.program.fetch(*pc).expect("recovered pc is in the program")),
            ],
        );
    }
    print!("{t}");
}

fn all_models(w: &Workload) {
    let runs = run_grid(
        &Cell::grid(std::slice::from_ref(w), &CellConfig::MODELS, &[16]),
        all_cores(),
        run_cell,
    );
    let base = &runs[0].stats;
    println!(
        "base: ipc {:.2} brmisp {:.1}% trmisp {:.1}% fullsq {} len {:.1}",
        base.ipc(),
        base.branch_misp_rate(),
        base.trace_misp_rate(),
        base.full_squashes,
        base.avg_trace_len()
    );
    for r in &runs[1..] {
        let s = &r.stats;
        println!("{:>10}: ipc {:.2} ({:+.1}%) brmisp {:.1}% cgci {}/{} fgci {} fullsq {} reclaims {} redisp {} rebinds {} reissue {} (marks: val {} rebind {} snoop {})",
            r.config.name(), s.ipc(), 100.0*(s.ipc()-base.ipc())/base.ipc(), s.branch_misp_rate(),
            s.cgci_reconverged, s.cgci_attempts, s.fgci_recoveries, s.full_squashes,
            s.tail_reclaims, s.redispatched_traces, s.head_rebinds, s.reissue_events,
            s.value_change_marks, s.rebind_marks, s.load_snoop_reissues);
        print!("{}", r.attribution.table());
    }
}
