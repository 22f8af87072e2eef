//! Spread report: runs one workload with consecutive seeds, one process
//! per run, and prints each metric's median, quartiles, interquartile
//! share of the median and max/min ratio — the figures bounds are set
//! from.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use gcr_bench::json::{self, Json};

use crate::{stats, Cli};

/// One run's result line, reduced to what the report needs.
struct RunLine {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_line(line: &str) -> Result<RunLine, String> {
    let j = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let num = |k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
    let Some(Json::Object(fields)) = j.get("metrics") else {
        return Err("no metrics object".to_owned());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in fields {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric value")?;
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        metrics.insert(name.clone(), (value, unit.to_owned()));
    }
    Ok(RunLine {
        correct: j.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// Runs `runs` seeds of `cli.workload` and prints the spread table.
pub fn run(cli: &Cli, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::with_capacity(runs);
    for k in 0..runs {
        let seed = cli.seed + k as u64;
        let out = Command::new(&exe)
            .args(["--workload", &cli.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--gcrd")
            .arg(&cli.gcrd)
            .arg("--out-dir")
            .arg(&cli.out_dir)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning run {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() {
            return Err(format!("run with seed {seed} exited with {}", out.status));
        }
        let line = parse_line(last)?;
        println!(
            "seed {seed}: correct {} attempted {} failed {}",
            line.correct, line.attempted, line.failed
        );
        lines.push(line);
    }
    print_table(&lines);
    Ok(())
}

fn print_table(lines: &[RunLine]) {
    let Some(first) = lines.first() else {
        return;
    };
    println!(
        "{:<26} {:>6} {:>14} {:>14} {:>14} {:>9} {:>8}",
        "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min"
    );
    for (name, (_, unit)) in &first.metrics {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| l.metrics.get(name).map(|m| m.0))
            .collect();
        let (q1, q3) = stats::quartiles(&values);
        println!(
            "{name:<26} {unit:>6} {:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {:>8.4}",
            stats::median(&values),
            stats::relative_iqr(&values),
            stats::max_min_ratio(&values)
        );
    }
    let shares: Vec<f64> = lines.iter().map(|l| l.failed / l.attempted).collect();
    println!(
        "failed share per run: {:?}; all correct: {}",
        shares,
        lines.iter().all(|l| l.correct)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"pass_ms": {"value": 1.5, "unit": "ms"}}}"#;
        let r = parse_line(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.attempted, 12.0);
        assert_eq!(r.metrics["pass_ms"], (1.5, "ms".to_owned()));
        assert!(parse_line("{}").is_err());
    }
}
