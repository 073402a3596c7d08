//! # acir-bench
//!
//! The figure-regeneration binaries of the ACIR reproduction
//! (`src/bin/`) and the CLI arguments they share ([`BinArgs`]).
//! Performance is measured by the separate `benchmark/` crate, not here.
//!
//! Binaries (run with `--release`; each writes CSVs under `results/`
//! and prints the tables recorded in EXPERIMENTS.md):
//!
//! * `fig1` — regenerates Figure 1(a–c) on the AtP-DBLP surrogate;
//! * `casestudy1` — the §3.1 equivalence and regularization-path
//!   tables;
//! * `casestudy3` — the §3.3 locality/recovery table and the
//!   seed-exclusion demo;
//! * `ablations` — Cheeger table, worst-case geometry sweeps, early
//!   stopping, and noise ablations.
//!
//! A `--quick` flag on each binary shrinks the workload for smoke
//! runs; the full configuration is the EXPERIMENTS.md reference.

/// Common CLI arguments of the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinArgs {
    /// Run the reduced smoke-test configuration.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: std::path::PathBuf,
    /// Worker-thread override (`--threads N`); `None` leaves the
    /// `ACIR_THREADS` environment / per-call defaults in charge.
    pub threads: Option<usize>,
}

/// One line per supported flag; printed to stderr on a parse error.
pub const USAGE: &str = "supported arguments:\n  --quick        run the reduced smoke-test configuration\n  --seed N       base RNG seed (non-negative integer)\n  --out DIR      output directory for artifacts\n  --threads N    worker threads (positive integer; sets ACIR_THREADS)";

impl BinArgs {
    /// Parse from `std::env::args`, reporting bad input like a CLI tool
    /// should: usage to stderr and exit code 2, never a panic.
    ///
    /// A `--threads N` override is also exported as `ACIR_THREADS`
    /// before returning, so every [`acir::exec::ExecPool`] the binary
    /// constructs — including pools deep inside library code — follows
    /// the flag without plumbing.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => {
                if let Some(n) = args.threads {
                    std::env::set_var(acir::exec::THREADS_ENV, n.to_string());
                }
                args
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`BinArgs::parse`]: pure argument
    /// validation, no process exit and no environment mutation, so
    /// tests can drive every error path.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            quick: false,
            seed: 0xAC1D,
            out_dir: std::path::PathBuf::from("results"),
            threads: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seed" => {
                    let v = args.next().ok_or("--seed needs an integer")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs a non-negative integer, got `{v}`"))?;
                }
                "--out" => {
                    let v = args.next().ok_or("--out needs a path")?;
                    out.out_dir = v.into();
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads needs an integer")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--threads needs a positive integer, got `{v}`"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".to_owned());
                    }
                    out.threads = Some(n);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn parse(args: &[&str]) -> Result<BinArgs, String> {
        BinArgs::parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_without_arguments() {
        let a = parse(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.seed, 0xAC1D);
        assert_eq!(a.out_dir, std::path::PathBuf::from("results"));
        assert_eq!(a.threads, None);
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(&[
            "--quick",
            "--seed",
            "7",
            "--out",
            "artifacts",
            "--threads",
            "4",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, std::path::PathBuf::from("artifacts"));
        assert_eq!(a.threads, Some(4));
    }

    #[test]
    fn bad_input_is_an_err_not_a_panic() {
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("abc"));
        assert!(parse(&["--seed", "-3"]).unwrap_err().contains("-3"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out"));
        assert!(parse(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(parse(&["--threads", "zero"]).unwrap_err().contains("zero"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn usage_names_every_flag() {
        for flag in ["--quick", "--seed", "--out", "--threads"] {
            assert!(USAGE.contains(flag), "USAGE missing {flag}");
        }
    }
}
