//! The `tp` command line: one argument reader and one cell spec shared by
//! every subcommand.
//!
//! [`Args`] hands out a subcommand's flags by name; [`CellSpec`] takes the
//! flags that pick grid cells (`--workload/--size/--suite/--model/--pes/
//! --sample/--out`) and checks every configuration they select before
//! anything runs. A rejected command line is a [`UsageError`], which the
//! binary reports with exit status 2.

use std::fmt;
use std::str::FromStr;

use tp_workloads::{Size, Workload};

use crate::speed::{parse_size, SuiteChoice};
use crate::sweep::CellConfig;

/// A rejected command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// A subcommand's arguments, consumed flag by flag. Whatever is left at
/// [`Args::finish`] is positional, or an unknown flag.
#[derive(Clone, Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wraps the arguments that follow the subcommand name.
    pub fn new(argv: impl IntoIterator<Item = String>) -> Args {
        Args { rest: argv.into_iter().collect() }
    }

    /// Removes the leading argument unless it is a flag: the verb of a
    /// subcommand with verbs (`tp ckpt create ...`).
    pub fn verb(&mut self) -> Option<String> {
        (!self.rest.first()?.starts_with("--")).then(|| self.rest.remove(0))
    }

    /// Removes a boolean flag, reporting whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// Removes `name` and the `n` values that follow it; the last
    /// occurrence wins.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `n` values follow the flag.
    pub fn values(&mut self, name: &str, n: usize) -> Result<Option<Vec<String>>, UsageError> {
        let mut found = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            if i + n >= self.rest.len() {
                return Err(usage(format!("{name} requires {n} value(s)")));
            }
            found = Some(self.rest.drain(i..=i + n).skip(1).collect());
        }
        Ok(found)
    }

    /// Removes `name VALUE`.
    ///
    /// # Errors
    ///
    /// Fails when the value is missing.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, UsageError> {
        Ok(self.values(name, 1)?.and_then(|mut v| v.pop()))
    }

    /// Removes `name VALUE` and parses the value.
    ///
    /// # Errors
    ///
    /// Fails when the value is missing or does not parse.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, UsageError> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| usage(format!("{name}: cannot parse {v:?}"))))
            .transpose()
    }

    /// The remaining positional arguments, at most `max` of them.
    ///
    /// # Errors
    ///
    /// Fails on a leftover flag (one the subcommand does not accept) or
    /// on too many positionals.
    pub fn finish(self, max: usize) -> Result<Vec<String>, UsageError> {
        if let Some(a) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(usage(format!("unknown argument {a:?}")));
        }
        if self.rest.len() > max {
            return Err(usage(format!("unexpected argument {:?}", self.rest[max])));
        }
        Ok(self.rest)
    }
}

/// Selects workloads by name (overrides `--suite`).
pub const WORKLOAD: &str = "--workload";
/// Suite size: `tiny|small|full|long`.
pub const SIZE: &str = "--size";
/// Suite: `synth|rv|all`.
pub const SUITE: &str = "--suite";
/// One configuration label (a model or a `base(..)` baseline).
pub const MODEL: &str = "--model";
/// Comma-separated PE counts.
pub const PES: &str = "--pes";
/// Sampled instead of full detailed execution.
pub const SAMPLE: &str = "--sample";
/// Output path.
pub const OUT: &str = "--out";

/// The grid a subcommand runs, as chosen on its command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// `--workload NAME`: one workload instead of the suite.
    pub workload: Option<String>,
    /// `--size`.
    pub size: Size,
    /// `--suite` (default `synth`).
    pub suite: SuiteChoice,
    /// `--model`: one configuration instead of the subcommand's default
    /// set.
    pub model: Option<CellConfig>,
    /// `--pes`: the PE-count axis (default: the paper's 16).
    pub pes: Option<Vec<usize>>,
    /// `--sample`.
    pub sample: bool,
    /// `--out PATH`.
    pub out: Option<String>,
}

impl CellSpec {
    /// Takes the cell flags named in `accepted` out of `args`, defaulting
    /// the size to `size`. Cell flags not in `accepted` stay behind for
    /// [`Args::finish`] to reject.
    ///
    /// # Errors
    ///
    /// Fails on an unknown size, suite or model label, a malformed PE
    /// list, or `--sample` combined with `--pes`.
    pub fn take(args: &mut Args, accepted: &[&str], size: Size) -> Result<CellSpec, UsageError> {
        let mut value =
            |flag: &str| if accepted.contains(&flag) { args.value(flag) } else { Ok(None) };
        let (workload, size_arg, suite) = (value(WORKLOAD)?, value(SIZE)?, value(SUITE)?);
        let (model, pes, out) = (value(MODEL)?, value(PES)?, value(OUT)?);
        let sample = accepted.contains(&SAMPLE) && args.flag(SAMPLE);
        let spec = CellSpec {
            workload,
            size: match size_arg {
                Some(s) => parse_size(&s)
                    .ok_or_else(|| usage(format!("unknown --size {s:?} (tiny|small|full|long)")))?,
                None => size,
            },
            suite: match suite {
                Some(s) => SuiteChoice::parse(&s)
                    .ok_or_else(|| usage(format!("unknown --suite {s:?} (synth|rv|all)")))?,
                None => SuiteChoice::Synth,
            },
            model: model
                .map(|m| {
                    CellConfig::parse(&m).ok_or_else(|| {
                        usage(format!(
                            "unknown --model {m:?} (base|RET|MLB-RET|FG|FG+MLB-RET|base(ntb)|\
                             base(fg)|base(fg,ntb))"
                        ))
                    })
                })
                .transpose()?,
            pes: pes
                .map(|list| {
                    list.split(',')
                        .map(|p| p.parse().map_err(|_| usage(format!("bad --pes entry {p:?}"))))
                        .collect::<Result<Vec<usize>, _>>()
                })
                .transpose()?,
            sample,
            out,
        };
        if spec.sample && spec.pes.is_some() {
            return Err(usage("--sample does not support --pes"));
        }
        Ok(spec)
    }

    /// The PE-count axis.
    pub fn pes(&self) -> Vec<usize> {
        self.pes.clone().unwrap_or_else(|| vec![16])
    }

    /// The configurations to run: `--model`, else `default`. Every one is
    /// validated at every PE count, so a bad value is reported with its
    /// field name instead of panicking mid-grid.
    ///
    /// # Errors
    ///
    /// Fails when a configuration does not validate.
    pub fn configs(&self, default: &[CellConfig]) -> Result<Vec<CellConfig>, UsageError> {
        let configs = self.model.map_or_else(|| default.to_vec(), |m| vec![m]);
        for &c in &configs {
            for pes in self.pes() {
                c.config(pes).validate().map_err(|e| {
                    usage(format!("invalid configuration for {} at {pes} PEs: {e}", c.name()))
                })?;
            }
        }
        Ok(configs)
    }

    /// The one configuration of a single-cell subcommand: `--model`, else
    /// `default`, validated.
    ///
    /// # Errors
    ///
    /// As [`CellSpec::configs`].
    pub fn config(&self, default: CellConfig) -> Result<CellConfig, UsageError> {
        Ok(self.configs(&[default])?[0])
    }

    /// The workloads to run: `--workload`, else the suite at the size.
    ///
    /// # Errors
    ///
    /// Fails on an unknown workload name.
    pub fn workloads(&self) -> Result<Vec<Workload>, UsageError> {
        match &self.workload {
            Some(name) => Ok(vec![workload(name, self.size)?]),
            None => Ok(self.suite.workloads(self.size)),
        }
    }
}

/// Looks a workload up by name, with the registry's list of valid names
/// on a miss.
///
/// # Errors
///
/// Fails on an unknown workload name.
pub fn workload(name: &str, size: Size) -> Result<Workload, UsageError> {
    tp_workloads::by_name(name, size).map_err(|e| usage(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Cell;
    use tp_core::CiModel;
    use tp_trace::SelectionConfig;

    const ALL: [&str; 7] = [WORKLOAD, SIZE, SUITE, MODEL, PES, SAMPLE, OUT];

    fn spec(argv: &[&str]) -> Result<CellSpec, UsageError> {
        let mut args = Args::new(argv.iter().map(ToString::to_string));
        let spec = CellSpec::take(&mut args, &ALL, Size::Full)?;
        args.finish(0)?;
        Ok(spec)
    }

    #[test]
    fn flags_parse_in_any_order() {
        let s =
            spec(&["--out", "x.json", "--size", "tiny", "--model", "base(fg)", "--suite", "rv"])
                .unwrap();
        assert_eq!(s.size, Size::Tiny);
        assert_eq!(s.suite, SuiteChoice::Rv);
        assert_eq!(s.model, Some(CellConfig::Baseline(SelectionConfig::with_fg())));
        assert_eq!(s.out.as_deref(), Some("x.json"));
        assert_eq!(s.pes(), [16]);
        let s = spec(&["--pes", "4,8", "--model", "FG"]).unwrap();
        assert_eq!(s.pes(), [4, 8]);
        assert_eq!(s.configs(&CellConfig::MODELS).unwrap(), [CellConfig::Model(CiModel::Fg)]);
    }

    /// `tp sweep` shares the cell spec, so `--suite all` sweeps the rv
    /// corpus too.
    #[test]
    fn sweep_grid_over_all_suites_includes_rv_cells() {
        let s = spec(&["--suite", "all", "--size", "tiny"]).unwrap();
        let workloads = s.workloads().unwrap();
        let cells = Cell::grid(&workloads, &s.configs(&CellConfig::sweep()).unwrap(), &s.pes());
        assert_eq!(cells.len(), 14 * 8);
        for rv in tp_workloads::rv_names() {
            assert_eq!(cells.iter().filter(|c| c.workload.name == rv).count(), 8, "{rv}");
        }
    }
}
