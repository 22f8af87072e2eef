//! `perfbench` — the gated-routing flow's benchmark: four workloads, each
//! printing its end-to-end metrics (or, traced, its per-layer metrics)
//! as one JSON line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--gcrd PATH] [--out-dir DIR]
//! perfbench spread --workload NAME [--runs N] [--first-seed N]
//!           [--seconds S] [--trace 0|1] [--gcrd PATH] [--out-dir DIR]
//! ```

mod flow;
mod harness;
mod long_trace;
mod mem;
mod probe;
mod scale;
mod session;
mod spread;
mod stats;
mod tsay;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Workload;

#[global_allocator]
static GLOBAL: mem::CountingAlloc = mem::CountingAlloc;

/// Workload seed when `--seed` is absent: the paper's year, the default
/// of `WorkloadParams`.
pub const DEFAULT_SEED: u64 = 1998;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["tsay-suite", "long-trace", "scale-r6", "gcrd-session"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Cli {
    /// `Some(runs)` in spread mode.
    spread_runs: Option<usize>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    gcrd: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        spread_runs: None,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        gcrd: PathBuf::from(".bench_build/release/gcrd"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    if args.first().map(String::as_str) == Some("spread") {
        it.next();
        cli.spread_runs = Some(10);
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |s: &String| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" | "--first-seed" => {
                cli.seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?;
            }
            "--seconds" => cli.seconds = num(value()?)?,
            "--trace" => cli.trace = value()? == "1",
            "--gcrd" => cli.gcrd = PathBuf::from(value()?),
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--runs" if cli.spread_runs.is_some() => {
                cli.spread_runs = Some(value()?.parse().map_err(|_| "bad --runs".to_owned())?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(cli)
}

/// Engine threads of the measured runs: two, or fewer on a smaller host.
/// Never read from `GCR_THREADS` or taken from the core count alone.
pub(crate) fn measured_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

fn build(cli: &Cli, threads: usize) -> Box<dyn Workload> {
    match cli.workload.as_str() {
        "tsay-suite" => Box::new(tsay::TsaySuite::new(cli.seed, threads)),
        "long-trace" => Box::new(long_trace::LongTrace::new(cli.seed, threads)),
        "scale-r6" => Box::new(scale::ScaleR6::new(cli.seed, threads)),
        _ => Box::new(session::Session::new(
            cli.seed,
            cli.gcrd.clone(),
            cli.out_dir.clone(),
        )),
    }
}

fn run(cli: &Cli) -> Result<harness::Outcome, String> {
    // Engines left at their default thread count resolve GCR_THREADS; pin
    // it so that no call inherits the caller's environment.
    let threads = if cli.trace { 1 } else { measured_threads() };
    std::env::set_var("GCR_THREADS", threads.to_string());
    mem::install_probes();
    if cli.trace {
        std::fs::create_dir_all(&cli.out_dir)
            .map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
        let chrome = cli
            .out_dir
            .join(format!("{}-{}.trace.json", cli.workload, cli.seed));
        harness::measure_traced(build(cli, threads).as_mut(), cli.seconds, &chrome)
    } else {
        harness::measure(&|| build(cli, threads), cli.seconds)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = cli.spread_runs {
        return match spread::run(&cli, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench spread: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&cli) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse_args(&args("--workload scale-r6 --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(cli.workload, "scale-r6");
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.seconds, 12.0);
        assert!(cli.trace);
        assert_eq!(cli.spread_runs, None);
    }

    #[test]
    fn parses_spread_mode() {
        let cli = parse_args(&args(
            "spread --workload tsay-suite --runs 5 --first-seed 3",
        ))
        .unwrap();
        assert_eq!(cli.spread_runs, Some(5));
        assert_eq!(cli.seed, 3);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload tsay-suite --seconds 0")).is_err());
        assert!(parse_args(&args("--workload tsay-suite --runs 3")).is_err());
        assert!(parse_args(&args("--workload tsay-suite --seed")).is_err());
        assert!(parse_args(&args("")).is_err());
    }
}
