//! The command-line front end shared by the `treediff` and `ladiff`
//! binaries: the pipeline flags both accept, their checks, and the mapping
//! from pipeline errors to exit codes.
//!
//! Each binary offers every argument to [`PipelineFlags::take`] first and
//! handles only its own flags itself:
//!
//! ```
//! use hierdiff_core::cli::PipelineFlags;
//!
//! let mut flags = PipelineFlags::default();
//! let mut args = ["-s", "gumtree", "--min-height", "2"].map(String::from).into_iter();
//! while let Some(arg) = args.next() {
//!     assert!(flags.take(&arg, &mut args).unwrap(), "a shared flag");
//! }
//! let (_params, strategy, _budgets) = flags.finish(false).unwrap();
//! assert_eq!(strategy.name(), "gumtree");
//! ```

use std::time::Duration;

use hierdiff_guard::Budgets;
use hierdiff_matching::{GumTreeParams, MatchParams};

use crate::{DiffError, FastMatchConfig, MatchStrategy};

/// The pipeline flags both binaries take:
///
/// * `-t/--threshold`, `-f/--leaf-threshold` — the criteria parameters
///   `t` and `f` (Section 5.1);
/// * `-s/--strategy fastmatch|fast|simple|gumtree` — the matching strategy;
/// * `--min-height`, `--sim-threshold`, `--max-recovery` — GumTree's knobs;
/// * `--timeout <secs>`, `--max-nodes <n>` — resource budgets.
#[derive(Debug)]
pub struct PipelineFlags {
    t: f64,
    f: f64,
    strategy: Option<&'static str>,
    gumtree: GumTreeParams,
    /// The GumTree knobs given, in command-line order, so a knob without
    /// `--strategy gumtree` is named in the error.
    gumtree_flags: Vec<&'static str>,
    budgets: Budgets,
}

impl Default for PipelineFlags {
    fn default() -> PipelineFlags {
        PipelineFlags {
            t: 0.6,
            f: 0.5,
            strategy: None,
            gumtree: GumTreeParams::default(),
            gumtree_flags: Vec::new(),
            budgets: Budgets::unlimited(),
        }
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

impl PipelineFlags {
    /// Consumes `flag` and its value from `rest` when it is a pipeline
    /// flag; returns `Ok(false)`, consuming nothing, for any other argument.
    pub fn take(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let name = match flag {
            "-t" | "--threshold" => "-t",
            "-f" | "--leaf-threshold" => "-f",
            "-s" | "--strategy" => "--strategy",
            "--min-height" => "--min-height",
            "--sim-threshold" => "--sim-threshold",
            "--max-recovery" => "--max-recovery",
            "--timeout" => "--timeout",
            "--max-nodes" => "--max-nodes",
            _ => return Ok(false),
        };
        let value = rest.next().ok_or_else(|| format!("{name} needs a value"))?;
        match name {
            "-t" => self.t = parse(name, value)?,
            "-f" => self.f = parse(name, value)?,
            "--strategy" => {
                self.strategy = Some(match value.as_str() {
                    "fastmatch" | "fast" => "fastmatch",
                    "simple" => "simple",
                    "gumtree" => "gumtree",
                    other => {
                        return Err(format!(
                            "unknown strategy {other:?} (expected fastmatch, simple, or gumtree)"
                        ))
                    }
                })
            }
            "--min-height" => self.gumtree = self.gumtree.with_min_height(parse(name, value)?),
            "--sim-threshold" => {
                let s: f64 = parse(name, value)?;
                if !(0.0..=1.0).contains(&s) {
                    return Err("bad --sim-threshold: need a value in 0..=1".to_string());
                }
                self.gumtree = self.gumtree.with_sim_threshold(s);
            }
            "--max-recovery" => {
                self.gumtree = self.gumtree.with_max_recovery_size(parse(name, value)?)
            }
            "--timeout" => {
                let secs: f64 = parse(name, value)?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("bad --timeout: need a non-negative number of seconds".to_string());
                }
                self.budgets = self
                    .budgets
                    .with_max_wall_time(Duration::from_secs_f64(secs));
            }
            _ => self.budgets = self.budgets.with_max_nodes(parse(name, value)?),
        }
        if matches!(name, "--min-height" | "--sim-threshold" | "--max-recovery") {
            self.gumtree_flags.push(name);
        }
        Ok(true)
    }

    /// Whether `-s/--strategy` was given (as opposed to the FastMatch
    /// default).
    pub fn strategy_given(&self) -> bool {
        self.strategy.is_some()
    }

    /// Applies the cross-flag checks — GumTree knobs need
    /// `--strategy gumtree`, `prune` needs FastMatch — and resolves the
    /// flags into the pipeline's configuration.
    pub fn finish(self, prune: bool) -> Result<(MatchParams, MatchStrategy, Budgets), String> {
        let name = self.strategy.unwrap_or("fastmatch");
        if name != "gumtree" {
            if let Some(flag) = self.gumtree_flags.first() {
                return Err(format!("{flag} applies to --strategy gumtree"));
            }
        }
        if prune && name != "fastmatch" {
            return Err("--prune applies to --strategy fastmatch".to_string());
        }
        let strategy = match name {
            "simple" => MatchStrategy::Simple,
            "gumtree" => MatchStrategy::GumTree(self.gumtree),
            _ => MatchStrategy::FastMatch(FastMatchConfig { prune }),
        };
        let params = MatchParams::with_inner_threshold(self.t).with_leaf_threshold(self.f);
        Ok((params, strategy, self.budgets))
    }
}

/// A command-line failure: the diagnostic for stderr and the process exit
/// code. Budget exhaustion and cancellation exit with 4 so callers can tell
/// "too expensive" from "wrong" (1) without parsing stderr.
#[derive(Debug)]
pub struct Failure {
    /// The diagnostic.
    pub msg: String,
    /// The process exit code.
    pub code: u8,
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure { msg, code: 1 }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::from(msg.to_string())
    }
}

impl From<DiffError> for Failure {
    fn from(e: DiffError) -> Failure {
        let code = match e {
            DiffError::Cancelled | DiffError::BudgetExhausted(_) => 4,
            _ => 1,
        };
        Failure {
            msg: e.to_string(),
            code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_guard::Budget;

    fn flags(args: &[&str]) -> Result<PipelineFlags, String> {
        let mut flags = PipelineFlags::default();
        let mut rest = args.iter().map(|a| a.to_string());
        while let Some(arg) = rest.next() {
            assert!(flags.take(&arg, &mut rest)?, "{arg} is a pipeline flag");
        }
        Ok(flags)
    }

    fn finish(args: &[&str], prune: bool) -> Result<(MatchParams, MatchStrategy), String> {
        flags(args)?.finish(prune).map(|(p, s, _)| (p, s))
    }

    #[test]
    fn other_arguments_are_left_alone() {
        let mut flags = PipelineFlags::default();
        let mut rest = ["value".to_string()].into_iter();
        for other in ["-k", "--output", "-p", "old.sexpr"] {
            assert_eq!(flags.take(other, &mut rest), Ok(false));
        }
        assert_eq!(rest.next().as_deref(), Some("value"), "nothing consumed");
    }

    #[test]
    fn defaults_are_the_pipeline_defaults() {
        let flags = PipelineFlags::default();
        assert!(!flags.strategy_given());
        let (params, strategy, budgets) = flags.finish(false).unwrap();
        assert_eq!(params, MatchParams::with_inner_threshold(0.6));
        assert_eq!(strategy.name(), "fastmatch");
        assert_eq!(budgets, Budgets::unlimited());
    }

    #[test]
    fn thresholds() {
        let (params, _) = finish(&["-t", "0.7", "--leaf-threshold", "0.2"], false).unwrap();
        let want = MatchParams::with_inner_threshold(0.7).with_leaf_threshold(0.2);
        assert_eq!(params, want);
        let (params, _) = finish(&["--threshold", "0.8", "-f", "0.3"], false).unwrap();
        assert_eq!(
            params,
            MatchParams::with_inner_threshold(0.8).with_leaf_threshold(0.3)
        );
        assert_eq!(flags(&["-t"]).unwrap_err(), "-t needs a value");
        assert_eq!(flags(&["--threshold"]).unwrap_err(), "-t needs a value");
        assert!(flags(&["-t", "x"]).unwrap_err().starts_with("bad -t: "));
        assert_eq!(flags(&["-f"]).unwrap_err(), "-f needs a value");
        assert!(flags(&["-f", "x"]).unwrap_err().starts_with("bad -f: "));
    }

    #[test]
    fn strategies() {
        for (value, name) in [
            ("fastmatch", "fastmatch"),
            ("fast", "fastmatch"),
            ("simple", "simple"),
            ("gumtree", "gumtree"),
        ] {
            let f = flags(&["-s", value]).unwrap();
            assert!(f.strategy_given());
            assert_eq!(f.finish(false).unwrap().1.name(), name);
        }
        assert_eq!(
            flags(&["--strategy", "zs"]).unwrap_err(),
            "unknown strategy \"zs\" (expected fastmatch, simple, or gumtree)"
        );
        assert_eq!(flags(&["-s"]).unwrap_err(), "--strategy needs a value");
    }

    #[test]
    fn gumtree_knobs() {
        let args = [
            "--min-height",
            "3",
            "--sim-threshold",
            "0.25",
            "--max-recovery",
            "7",
        ];
        let with_strategy: Vec<&str> = ["-s", "gumtree"].iter().chain(&args).copied().collect();
        let (_, strategy) = finish(&with_strategy, false).unwrap();
        let MatchStrategy::GumTree(params) = strategy else {
            panic!("{strategy:?}");
        };
        let want = GumTreeParams::default()
            .with_min_height(3)
            .with_sim_threshold(0.25)
            .with_max_recovery_size(7);
        assert_eq!(params, want);
        // Knobs compose with --strategy in either order.
        let knobs_first: Vec<&str> = args.iter().chain(&["-s", "gumtree"]).copied().collect();
        assert!(
            matches!(finish(&knobs_first, false), Ok((_, MatchStrategy::GumTree(p))) if p == want)
        );

        for flag in ["--min-height", "--sim-threshold", "--max-recovery"] {
            assert_eq!(flags(&[flag]).unwrap_err(), format!("{flag} needs a value"));
            let bad = flags(&[flag, "x"]).unwrap_err();
            assert!(bad.starts_with(&format!("bad {flag}: ")), "{bad}");
            // Without --strategy gumtree (or with another strategy), the
            // first knob given is named.
            for strategy in [&[][..], &["-s", "simple"], &["-s", "fastmatch"]] {
                let mut given: Vec<&str> = strategy.to_vec();
                given.extend([flag, "1", "--max-recovery", "1"]);
                assert_eq!(
                    finish(&given, false).unwrap_err(),
                    format!("{flag} applies to --strategy gumtree")
                );
            }
        }
        assert_eq!(
            flags(&["--sim-threshold", "2"]).unwrap_err(),
            "bad --sim-threshold: need a value in 0..=1"
        );
        assert_eq!(
            flags(&["--sim-threshold", "NaN"]).unwrap_err(),
            "bad --sim-threshold: need a value in 0..=1"
        );
    }

    #[test]
    fn budgets() {
        let (_, _, budgets) = flags(&["--timeout", "1.5", "--max-nodes", "9"])
            .unwrap()
            .finish(false)
            .unwrap();
        let want = Budgets::unlimited()
            .with_max_wall_time(Duration::from_millis(1500))
            .with_max_nodes(9);
        assert_eq!(budgets, want);
        for bad in ["-1", "nan", "inf"] {
            assert_eq!(
                flags(&["--timeout", bad]).unwrap_err(),
                "bad --timeout: need a non-negative number of seconds"
            );
        }
        assert!(flags(&["--timeout", "soon"])
            .unwrap_err()
            .starts_with("bad --timeout: "));
        assert_eq!(
            flags(&["--timeout"]).unwrap_err(),
            "--timeout needs a value"
        );
        assert!(flags(&["--max-nodes", "-1"])
            .unwrap_err()
            .starts_with("bad --max-nodes: "));
        assert_eq!(
            flags(&["--max-nodes"]).unwrap_err(),
            "--max-nodes needs a value"
        );
    }

    #[test]
    fn prune_needs_fastmatch() {
        let (_, strategy) = finish(&[], true).unwrap();
        assert!(matches!(strategy, MatchStrategy::FastMatch(c) if c.prune));
        let (_, strategy) = finish(&["-s", "fast"], true).unwrap();
        assert!(matches!(strategy, MatchStrategy::FastMatch(c) if c.prune));
        for other in ["simple", "gumtree"] {
            assert_eq!(
                finish(&["-s", other], true).unwrap_err(),
                "--prune applies to --strategy fastmatch"
            );
        }
    }

    #[test]
    fn failure_exit_codes() {
        assert_eq!(Failure::from(DiffError::Cancelled).code, 4);
        let exhausted = Failure::from(DiffError::BudgetExhausted(Budget::Nodes));
        assert_eq!(exhausted.code, 4);
        assert_eq!(exhausted.msg, "budget exhausted: max_nodes");
        assert_eq!(Failure::from(DiffError::MissingProvidedMatching).code, 1);
        assert_eq!(Failure::from(DiffError::WorkerPanicked(0)).code, 1);
        assert_eq!(Failure::from(DiffError::RetryExhausted(2)).code, 1);
        assert_eq!(Failure::from("usage").code, 1);
        assert_eq!(Failure::from("usage".to_string()).msg, "usage");
    }
}
