//! Command line of both binaries:
//! `--workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]`.

use crate::report::{envelope, MetricDef, Report};
use crate::workloads::{Cx, Workload, ALL};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xAC1D;

/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// `--seconds` per workload under `--smoke`.
pub const SMOKE_SECONDS: f64 = 1.5;

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order (all four when `--workload` is absent).
    pub workloads: Vec<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed phases of one workload run.
    pub seconds: f64,
    /// CI-sized graphs and phases: all four workloads in under 15 s.
    pub smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parse `args` (without the program name) for the binary that serves
/// `--trace <trace>`. Errors are messages for the user.
pub fn parse(args: &[String], trace: u8) -> Result<Args, String> {
    let mut out = Args {
        workloads: ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let workload = ALL.iter().find(|w| w.0 == v).ok_or_else(|| {
                    format!("unknown workload {v}; one of {:?}", ALL.map(|w| w.0))
                })?;
                out.workloads = vec![*workload];
            }
            "--seed" => {
                let v = value()?;
                out.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                let v = value()?;
                if v != &trace.to_string() {
                    return Err(format!(
                        "this binary serves --trace {trace}; run.sh picks the binary for --trace {v}"
                    ));
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.seconds == 0.0 {
        out.seconds = if out.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(out)
}

/// The `main` of both binaries: parse the command line for the binary
/// that serves `--trace <trace>`, pin `ACIR_THREADS` to `min(2, nproc)`
/// so the thread count is stated and not inherited, run each workload
/// through `run`, and print its envelope, its table of `table`'s
/// metrics, and — last, one per workload — its result line.
pub fn main(
    binary: &str,
    trace: u8,
    table: &[MetricDef],
    mut run: impl FnMut(&Workload, &Cx) -> Report,
) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv, trace).unwrap_or_else(|e| {
        eprintln!("{binary}: {e}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ACIR_THREADS", nproc.min(2).to_string());
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let mut lines = Vec::new();
    for workload in &args.workloads {
        let report = run(workload, &cx);
        println!("{}", envelope(binary, workload.0, &cx, &report.samples));
        println!("{}:", workload.0);
        report.print_table(table);
        // A per-layer line zero-fills the layers a workload bypasses.
        lines.push(report.result_line(table, trace == 1));
    }
    for line in lines {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(
            &args("--workload serve_read --seed 7 --seconds 10 --trace 0"),
            0,
        )
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].0, "serve_read");
        assert_eq!((a.seed, a.seconds, a.smoke), (7, 10.0, false));
        let a = parse(&args("--seed 0xAC1D --smoke"), 1).unwrap();
        assert_eq!(a.workloads.len(), 4);
        assert_eq!((a.seed, a.seconds, a.smoke), (0xAC1D, SMOKE_SECONDS, true));
    }

    #[test]
    fn rejects_what_it_cannot_serve() {
        assert!(parse(&args("--workload nope"), 0).is_err());
        assert!(parse(&args("--trace 1"), 0).is_err());
        assert!(parse(&args("--seconds -1"), 0).is_err());
        assert!(parse(&args("--seed"), 0).is_err());
        assert!(parse(&args("--frobnicate"), 0).is_err());
    }
}
