//! `tp cfgstats`: the static control-independence opportunity report,
//! per workload.
//!
//! Without `--workload`, prints a one-line static summary for every
//! workload of both suites (plus any lint findings); with one, prints its
//! full branch table. `--json` switches to a machine-readable
//! `tp-bench/cfgstats/v1` document (an array when no workload is named).
//!
//! Everything here is computed by `tp-cfg` from the decoded program
//! alone — no simulation. The report is the *static ceiling* on what the
//! simulator's CGCI/FGCI heuristics can exploit dynamically; compare
//! against `tp cistats` for what they actually achieve.
//!
//! Exit status is non-zero iff any reported workload has lint findings,
//! in either mode, so CI can run the report as a corpus health check.

use tp_bench::cli::{workload, Args, CellSpec, UsageError, WORKLOAD};
use tp_bench::json::Json;
use tp_cfg::{BranchKind, CfgAnalysis, CfgReport};
use tp_workloads::{Size, Workload};

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[WORKLOAD], Size::Full)?;
    let json = args.flag("--json");
    args.finish(0)?;
    let single = spec.workload.is_some();
    let workloads: Vec<Workload> = match &spec.workload {
        Some(name) => vec![workload(name, spec.size)?],
        None => tp_workloads::all_workloads(spec.size),
    };
    if report(&workloads, single, json) > 0 {
        std::process::exit(1);
    }
    Ok(())
}

/// Prints the report for `workloads` — text, or with `json` the
/// `tp-bench/cfgstats/v1` document (an array unless `single`) — and
/// returns the number of lint findings, the one input of the exit status.
fn report(workloads: &[Workload], single: bool, json: bool) -> usize {
    let mut findings = 0;
    let mut docs = Vec::new();
    for w in workloads {
        let analysis = CfgAnalysis::build(&w.program);
        let r = CfgReport::build(&w.program, &analysis);
        findings += r.lint.len();
        if json {
            docs.push(report_json(w, &r));
        } else {
            print_text(w, &r, single);
        }
    }
    if json {
        let doc = if single { docs.pop().expect("one workload") } else { Json::Arr(docs) };
        println!("{doc}");
    }
    findings
}

/// One workload's text summary line, its lint findings and, for a single
/// workload, its full branch table.
fn print_text(w: &Workload, r: &CfgReport, single: bool) {
    println!(
        "{:>10} ({:?}): {} insts, {} fns, {} loops (depth {}), {} branches \
         [loop {}+{} hammock {} fnexit {}], indirect {}/{} resolved, \
         reconv dist p50 {} max {}, region p50 {} max {}{}",
        r.name,
        w.frontend,
        r.insts,
        r.functions,
        r.loops,
        r.max_loop_depth,
        r.branches.len(),
        r.count(BranchKind::SingleExitLoop),
        r.count(BranchKind::MultiExitLoop),
        r.count(BranchKind::ForwardHammock),
        r.count(BranchKind::FunctionExit),
        r.resolved_indirect_sites,
        r.indirect_sites,
        pct(&dist_samples(r), 50),
        pct(&dist_samples(r), 100),
        pct(&region_samples(r), 50),
        pct(&region_samples(r), 100),
        if r.lint.is_empty() { String::new() } else { format!(", LINT {} findings", r.lint.len()) },
    );
    for f in &r.lint {
        println!("           lint: {f}");
    }
    if single {
        println!("           branches:");
        for b in &r.branches {
            println!(
                "             pc {:5} {:>17} reconv {:>5} dist {:>4} region {:>4} loop-depth {}",
                b.pc,
                b.kind.label(),
                b.reconv.map_or("-".into(), |r| r.to_string()),
                b.distance.map_or("-".into(), |d| d.to_string()),
                b.region_size.map_or("-".into(), |s| s.to_string()),
                b.loop_depth,
            );
        }
    }
}

/// Sorted re-convergence distances (absolute) over branches that have one.
fn dist_samples(r: &CfgReport) -> Vec<u64> {
    let mut v: Vec<u64> =
        r.branches.iter().filter_map(|b| b.distance).map(i64::unsigned_abs).collect();
    v.sort_unstable();
    v
}

/// Sorted control-dependent region sizes over branches that have one.
fn region_samples(r: &CfgReport) -> Vec<u64> {
    let mut v: Vec<u64> =
        r.branches.iter().filter_map(|b| b.region_size).map(|s| s as u64).collect();
    v.sort_unstable();
    v
}

/// The `p`-th percentile of a sorted sample (100 = max); 0 when empty.
fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * p / 100;
    sorted[idx]
}

/// One workload's `tp-bench/cfgstats/v1` JSON document.
fn report_json(w: &Workload, r: &CfgReport) -> Json {
    let (dist, region) = (dist_samples(r), region_samples(r));
    let spread = |s: &[u64]| {
        Json::obj([
            ("p50", pct(s, 50).into()),
            ("p90", pct(s, 90).into()),
            ("max", pct(s, 100).into()),
        ])
    };
    let mut branches = vec![("total", r.branches.len().into())];
    branches.extend(BranchKind::ALL.iter().map(|&k| (k.label(), r.count(k).into())));
    Json::obj([
        ("schema", "tp-bench/cfgstats/v1".into()),
        ("workload", r.name.as_str().into()),
        ("frontend", format!("{:?}", w.frontend).into()),
        ("insts", r.insts.into()),
        ("functions", r.functions.into()),
        ("reachable_insts", r.reachable_insts.into()),
        ("loops", r.loops.into()),
        ("max_loop_depth", r.max_loop_depth.into()),
        ("indirect_sites", r.indirect_sites.into()),
        ("resolved_indirect_sites", r.resolved_indirect_sites.into()),
        ("branches", Json::obj(branches)),
        ("reconv_distance", spread(&dist)),
        ("region_size", spread(&region)),
        ("lint", Json::Arr(r.lint.iter().map(|f| f.to_string().into()).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::asm::Asm;
    use tp_isa::Frontend;

    #[test]
    fn lint_findings_set_the_exit_rule_in_both_modes() {
        let mut a = Asm::new("linty");
        a.halt(); // pc 0
        a.nop(); // pc 1: unreachable
        let program = a.assemble().unwrap();
        let w = Workload {
            name: "linty",
            description: "dead code",
            program,
            frontend: Frontend::Synth,
        };
        let one = std::slice::from_ref(&w);
        assert_eq!(report(one, true, false), 1);
        assert_eq!(report(one, true, true), 1);
        assert_eq!(report(&[w.clone(), w.clone()], false, true), 2);
        assert_eq!(report(&[workload("compress", Size::Tiny).unwrap()], true, true), 0);
        // The JSON document names the finding.
        let r = CfgReport::build(&w.program, &CfgAnalysis::build(&w.program));
        let doc = tp_bench::json::parse(&report_json(&w, &r).to_string()).unwrap();
        assert_eq!(doc.str("schema"), Some("tp-bench/cfgstats/v1"));
        let lint = doc.get("lint").and_then(Json::as_array).expect("lint array");
        assert_eq!(lint, [Json::from("unreachable: pcs 1..=1")]);
    }
}
