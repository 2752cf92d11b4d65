//! Every command line `tp` rejects exits with status 2 and says why,
//! before any simulation starts.

use std::process::Command;

#[test]
fn rejected_command_lines_exit_with_status_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["baseline", "--size", "huge"], "unknown --size"),
        (&["baseline", "--suite", "spec"], "unknown --suite"),
        (&["simprof", "--model", "fg"], "unknown --model"),
        (&["baseline", "--pes", "4,x"], "bad --pes entry"),
        (&["baseline", "--out"], "--out requires"),
        (&["baseline", "--sample", "--guard"], "--sample does not support --guard"),
        (&["baseline", "--sample", "--pes", "4"], "--sample does not support --pes"),
        (&["baseline", "--gate", "1.0"], "--gate only applies to --ffwd-bench"),
        (&["simprof", "--gate"], "--gate/--ipc-tol only apply to --diff"),
        (&["simprof", "--ipc-tol", "2"], "--gate/--ipc-tol only apply to --diff"),
        // A configuration that fails `validate()` names the field.
        (&["baseline", "--pes", "1"], "num_pes = 1"),
        (&["simprof", "--workload", "nope"], "unknown workload `nope`"),
        (&["cistats", "--json"], "--json requires --model"),
        (&["ckpt", "create", "--workload", "gcc"], "requires --workload and --out"),
        (&["ckpt", "verify"], "missing checkpoint PATH"),
        (&["ckpt"], "expected create|inspect|verify|smoke"),
        (&["tracetap", "--size", "tiny"], "exactly one of --workload, --ckpt, --fuzz-seed"),
        (&["tracetap", "--fuzz-seed", "1", "--model", "base(fg)"], "five CI models"),
        (&["fuzz", "--count", "many"], "--count: cannot parse"),
        (&["fuzz", "--machine", "huge"], "unknown --machine"),
        (&["sweep", "tiny"], "unexpected argument \"tiny\""),
        (&["sweep", "--pes", "4"], "unknown argument \"--pes\""),
        (&["speed"], "unknown subcommand"),
    ];
    for (argv, expect) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tp")).args(*argv).output().expect("tp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tp {argv:?}: {stderr}");
        assert!(stderr.contains(expect), "tp {argv:?}: expected {expect:?} in {stderr}");
    }
}
