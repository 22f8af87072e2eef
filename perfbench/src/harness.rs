//! The measurement loop every workload runs through, and the metric
//! set it prints.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::mem;
use crate::probe::{PassTrace, Probe};
use crate::stats;

/// Set-ups per measured run at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Seconds of set-ups per measured run, spread evenly over its timed
/// passes. The host's speed moves by up to 1.7x from one second to the
/// next, so set-ups timed back to back all see one speed, while set-ups
/// spread over the run see the speeds its passes see.
pub const SETUP_SECONDS: f64 = 1.0;

/// Timed passes a run makes even when they outlast `--seconds`.
pub const MIN_PASSES: usize = 3;

/// The end-to-end metrics every measured run prints: name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("switched_cap_pf", "pF"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("eco_p50_ms", "ms"),
];

/// The per-layer metrics every traced run prints: name, unit. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.generate_ms", "ms"),
    ("activity.produce_ms", "ms"),
    ("activity.count_ms", "ms"),
    ("activity.scan_ms", "ms"),
    ("activity.mcycles_per_s", "Mcycle/s"),
    ("activity.allocs", "count"),
    ("core.objective_ms", "ms"),
    ("cts.greedy_ms", "ms"),
    ("cts.greedy_seed_ms", "ms"),
    ("cts.greedy_ring_ms", "ms"),
    ("cts.greedy_defer_ms", "ms"),
    ("cts.greedy_bound_ms", "ms"),
    ("cts.greedy_merge_ms", "ms"),
    ("cts.exact_evals", "count"),
    ("cts.bound_evals", "count"),
    ("cts.heap_pops", "count"),
    ("cts.bounds_per_exact", "ratio"),
    ("cts.loop_allocs", "count"),
    ("cts.coarsen_ms", "ms"),
    ("coarsen.partition_ms", "ms"),
    ("coarsen.regions_ms", "ms"),
    ("coarsen.replay_ms", "ms"),
    ("coarsen.top_ms", "ms"),
    ("cts.embed_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.reduce_ms", "ms"),
    ("verify.run_ms", "ms"),
    ("core.eco_ms", "ms"),
    ("cts.eco_replayed", "count"),
    ("cts.eco_spliced", "count"),
    ("gcrd.parse_ms", "ms"),
    ("gcrd.request_ms", "ms"),
    ("gcrd.respond_ms", "ms"),
    ("gcrd.queue_wait_ms", "ms"),
    ("gcrd.route_hit_ms", "ms"),
    ("gcrd.evaluate_hit_ms", "ms"),
    ("gcrd.eco_hit_ms", "ms"),
    ("gcrd.verify_hit_ms", "ms"),
    ("gcrd.route_force_miss_ms", "ms"),
    ("gcrd.hit_ratio", "ratio"),
    ("gcrd.hits", "count"),
    ("gcrd.misses", "count"),
    ("gcrd.rejected", "count"),
    ("allocs_per_pass", "count"),
    ("trace.untraced_pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one pass did.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Latency of each operation of the pass (ms), in script order.
    pub op_ms: Vec<f64>,
    /// Latency of the pass's ECO operations (ms), if it has any.
    pub eco_ms: Vec<f64>,
    /// Equation-3 switched capacitance of the pass's final routings (pF).
    pub switched_cap_pf: f64,
    /// Operations that failed: an error response or a failed output check.
    pub failed: usize,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Percentile `request_tail_ms` is read at (see [`stats::tail_percentile`]).
    fn tail_percentile(&self) -> f64;

    /// Builds the inputs (and starts any service). `setup_s` times it on
    /// fresh instances between the measured instance's passes.
    fn setup(&mut self, probe: &Probe) -> Result<(), String>;

    /// Output checks made after set-up, outside the timed passes. An
    /// `Err` is a failed check.
    fn check_before(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One whole round of the workload's operations. An `Err` is a fault
    /// of the harness, not of an operation.
    fn pass(&mut self, probe: &Probe) -> Result<PassResult, String>;

    /// Output checks made after the timed passes.
    fn check_after(&mut self) -> Result<(), String>;

    /// Peak resident memory of processes the workload started (MB).
    fn child_peak_rss_mb(&self) -> Result<f64, String> {
        Ok(0.0)
    }

    /// Per-layer metrics beyond the span totals, measured after the
    /// traced passes (`traces` holds one entry per traced pass).
    fn layer_metrics(&mut self, traces: &[PassTrace], out: &mut Metrics) -> Result<(), String> {
        let _ = (traces, out);
        Ok(())
    }

    /// Stops whatever [`Workload::setup`] started.
    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// The metrics printed.
    pub metrics: Metrics,
}

impl Outcome {
    /// The single JSON line the run ends with.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Accumulates passes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    pass_ms: Vec<f64>,
    op_ms: Vec<f64>,
    eco_ms: Vec<f64>,
    caps: Vec<f64>,
    /// Allocation events of each timed pass.
    allocs: Vec<f64>,
}

impl Tally {
    fn add(&mut self, result: PassResult, pass_ms: Option<f64>) {
        self.attempted += result.op_ms.len();
        self.failed += result.failed;
        self.caps.push(result.switched_cap_pf);
        if let Some(ms) = pass_ms {
            self.pass_ms.push(ms);
            self.op_ms.extend(result.op_ms);
            self.eco_ms.extend(result.eco_ms);
        }
    }

    /// Whether every pass reported the same switched capacitance.
    fn caps_agree(&self) -> bool {
        self.caps
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits())
    }
}

fn report(check: Result<(), String>, what: &str) -> bool {
    match check {
        Ok(()) => true,
        Err(msg) => {
            eprintln!("check failed ({what}): {msg}");
            false
        }
    }
}

/// Runs passes until `seconds` have elapsed (and at least
/// [`MIN_PASSES`]), after one untimed warm-up pass, and returns the
/// seconds elapsed. `each` runs after every pass with the seconds
/// elapsed so far; its own time is not counted.
fn timed_passes(
    w: &mut dyn Workload,
    probe: &Probe,
    seconds: f64,
    tally: &mut Tally,
    mut each: impl FnMut(&Probe, f64) -> Result<(), String>,
) -> Result<f64, String> {
    let warm = w.pass(probe)?;
    tally.add(warm, None);
    let _ = probe.take_pass();
    let start = Instant::now();
    let mut paused = 0.0;
    let elapsed = |paused: f64| start.elapsed().as_secs_f64() - paused;
    let mut passes = 0;
    while passes < MIN_PASSES || elapsed(paused) < seconds {
        let allocs = mem::allocs();
        let t = Instant::now();
        let result = w.pass(probe)?;
        tally.add(result, Some(t.elapsed().as_secs_f64() * 1e3));
        tally.allocs.push((mem::allocs() - allocs) as f64);
        let t = Instant::now();
        each(probe, elapsed(paused))?;
        paused += t.elapsed().as_secs_f64();
        passes += 1;
    }
    Ok(elapsed(paused))
}

/// Times one set-up of a fresh instance from `make`, then tears it down.
/// The measured instance's state stays as its passes left it.
fn time_setup(make: &dyn Fn() -> Box<dyn Workload>, probe: &Probe) -> Result<f64, String> {
    let mut w = make();
    let t = Instant::now();
    w.setup(probe)?;
    let s = t.elapsed().as_secs_f64();
    w.teardown()?;
    Ok(s)
}

/// The measured run: end-to-end metrics with tracing off. `make` builds
/// the workload; set-ups of fresh instances are timed between passes.
pub fn measure(make: &dyn Fn() -> Box<dyn Workload>, seconds: f64) -> Result<Outcome, String> {
    let probe = Probe::off();
    let mut w = make();
    let w = w.as_mut();
    let t = Instant::now();
    w.setup(&probe)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut correct = report(w.check_before(), "before passes");
    let mut tally = Tally::default();
    let wall_s = timed_passes(w, &probe, seconds, &mut tally, |probe, elapsed| {
        while setup_s.iter().sum::<f64>() < SETUP_SECONDS * elapsed / seconds {
            setup_s.push(time_setup(make, probe)?);
        }
        Ok(())
    })?;
    while setup_s.len() < SETUP_REPS {
        setup_s.push(time_setup(make, &probe)?);
    }
    let (q1, q3) = stats::quartiles(&setup_s);
    eprintln!(
        "{} set-ups (s): median {:.6}, quartiles {q1:.6} {q3:.6}",
        setup_s.len(),
        stats::median(&setup_s)
    );
    let rss = mem::peak_rss_mb(None)? + w.child_peak_rss_mb()?;
    correct &= report(w.check_after(), "after passes");
    correct &= tally.caps_agree() || {
        eprintln!("check failed: switched capacitance differs between passes");
        false
    };
    w.teardown()?;

    let tail_p = stats::tail_percentile(tally.op_ms.len(), w.tail_percentile());
    eprintln!(
        "{} passes, {} timed operations, request_tail_ms at p{tail_p}",
        tally.pass_ms.len(),
        tally.op_ms.len()
    );
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_s), "s");
    metrics.set("pass_ms", stats::median(&tally.pass_ms), "ms");
    metrics.set(
        "switched_cap_pf",
        tally.caps.last().copied().unwrap_or(f64::NAN),
        "pF",
    );
    metrics.set("peak_rss_mb", rss, "MB");
    metrics.set("request_p50_ms", stats::median(&tally.op_ms), "ms");
    // Below forty samples no tail is resolvable: report the median.
    let tail = if tail_p > 50.0 {
        stats::percentile(&tally.op_ms, tail_p)
    } else {
        stats::median(&tally.op_ms)
    };
    metrics.set("request_tail_ms", tail, "ms");
    metrics.set("requests_per_s", tally.op_ms.len() as f64 / wall_s, "1/s");
    metrics.set("eco_p50_ms", stats::median(&tally.eco_ms), "ms");
    debug_assert!(END_TO_END.iter().all(|(n, _)| metrics.0.contains_key(*n)));
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The traced run: half the time untraced, half with spans recorded,
/// then the per-layer metrics and the tracing overhead.
pub fn measure_traced(
    w: &mut dyn Workload,
    seconds: f64,
    chrome_out: &std::path::Path,
) -> Result<Outcome, String> {
    let off = Probe::off();
    w.setup(&off)?;
    let mut correct = report(w.check_before(), "before passes");
    let mut plain = Tally::default();
    timed_passes(w, &off, seconds / 2.0, &mut plain, |_, _| Ok(()))?;
    w.teardown()?;

    let probe = Probe::traced();
    w.setup(&probe)?;
    let setup_trace = probe.take_pass();
    let mut traced = Tally::default();
    let mut traces = Vec::new();
    timed_passes(w, &probe, seconds / 2.0, &mut traced, |p, _| {
        traces.push(p.take_pass());
        Ok(())
    })?;
    correct &= report(w.check_after(), "after passes");
    let same = plain.caps.last().map(|c| c.to_bits()) == traced.caps.last().map(|c| c.to_bits());
    correct &= (plain.caps_agree() && traced.caps_agree() && same) || {
        eprintln!("check failed: traced and untraced passes disagree");
        false
    };
    w.teardown()?;
    probe.write_chrome(chrome_out)?;

    let mut metrics = Metrics::default();
    metrics.set(
        "workloads.generate_ms",
        setup_trace.ms("bench.generate"),
        "ms",
    );
    layer_spans(&traces, &mut metrics);
    w.layer_metrics(&traces, &mut metrics)?;
    let plain_ms = stats::median(&plain.pass_ms);
    let traced_ms = stats::median(&traced.pass_ms);
    metrics.set("allocs_per_pass", stats::median(&traced.allocs), "count");
    metrics.set("trace.untraced_pass_ms", plain_ms, "ms");
    metrics.set("trace.traced_pass_ms", traced_ms, "ms");
    metrics.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
        "%",
    );
    print_layer_table(&traces);
    for (name, unit) in PER_LAYER {
        if !metrics.0.contains_key(name) {
            metrics.set(name, 0.0, unit);
        }
    }
    Ok(Outcome {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

/// Per-pass medians of the span totals and counters every workload's
/// layers report.
fn layer_spans(traces: &[PassTrace], out: &mut Metrics) {
    let med = |f: &dyn Fn(&PassTrace) -> f64| {
        let v: Vec<f64> = traces.iter().map(f).collect();
        stats::median(&v)
    };
    let spans = [
        (
            "core.objective_ms",
            &["bench.objective", "route.objective"][..],
        ),
        ("cts.greedy_ms", &["greedy.run"][..]),
        ("cts.greedy_seed_ms", &["greedy.seed"][..]),
        ("cts.greedy_ring_ms", &["greedy.ring"][..]),
        ("cts.greedy_defer_ms", &["greedy.defer"][..]),
        ("cts.greedy_bound_ms", &["greedy.bound"][..]),
        ("cts.greedy_merge_ms", &["greedy.merge"][..]),
        ("cts.coarsen_ms", &["coarsen.run"][..]),
        ("coarsen.partition_ms", &["coarsen.partition"][..]),
        ("coarsen.regions_ms", &["coarsen.regions"][..]),
        ("coarsen.replay_ms", &["coarsen.replay"][..]),
        ("coarsen.top_ms", &["coarsen.top"][..]),
        ("cts.embed_ms", &["embed.run"][..]),
        ("core.evaluate_ms", &["bench.evaluate"][..]),
        ("core.reduce_ms", &["bench.reduce"][..]),
        ("verify.run_ms", &["bench.verify"][..]),
        ("core.eco_ms", &["bench.eco"][..]),
    ];
    for (metric, names) in spans {
        out.set(metric, med(&|t| names.iter().map(|n| t.ms(n)).sum()), "ms");
    }
    let counters = [
        ("cts.exact_evals", "greedy.exact_cost_evals"),
        ("cts.bound_evals", "greedy.bound_evals"),
        ("cts.heap_pops", "greedy.heap_pops"),
        ("cts.loop_allocs", "greedy.loop_allocs"),
        ("cts.eco_replayed", "bench.eco_replayed"),
        ("cts.eco_spliced", "bench.eco_spliced"),
    ];
    for (metric, name) in counters {
        out.set(metric, med(&|t| t.counter(name)), "count");
    }
    let exact = med(&|t| t.counter("greedy.exact_cost_evals"));
    let bounds = med(&|t| t.counter("greedy.bound_evals"));
    out.set(
        "cts.bounds_per_exact",
        if exact > 0.0 { bounds / exact } else { 0.0 },
        "ratio",
    );
}

/// Prints each span's total and self time per pass (medians).
fn print_layer_table(traces: &[PassTrace]) {
    let mut names: Vec<&'static str> = traces
        .iter()
        .flat_map(|t| t.spans.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    eprintln!(
        "{:<24} {:>12} {:>12} {:>12}",
        "span", "total ms", "self ms", "allocs"
    );
    for name in names {
        let col = |f: &dyn Fn(&PassTrace) -> f64| {
            stats::median(&traces.iter().map(f).collect::<Vec<_>>())
        };
        let total = col(&|t| t.spans.get(name).map_or(0.0, |s| s.0 as f64 / 1e6));
        let own = col(&|t| t.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6));
        let allocs = col(&|t| t.allocs.get(name).map_or(0.0, |&a| a as f64));
        eprintln!("{name:<24} {total:>12.3} {own:>12.3} {allocs:>12}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_bench::json::Json;

    /// `(name, unit)` of every metric of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = gcr_bench::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn tally_detects_an_edited_switched_capacitance() {
        let mut tally = Tally::default();
        let pass = |cap| PassResult {
            op_ms: vec![1.0],
            switched_cap_pf: cap,
            ..PassResult::default()
        };
        tally.add(pass(5.0), Some(1.0));
        tally.add(pass(5.0), Some(1.0));
        assert!(tally.caps_agree());
        tally.add(pass(5.0 + 1e-12), Some(1.0));
        assert!(!tally.caps_agree());
        assert_eq!(tally.attempted, 3);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.set("pass_ms", 1.25, "ms");
        metrics.set("nan", f64::NAN, "ms");
        let line = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        }
        .to_json();
        let parsed = gcr_bench::json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(|j| j.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|j| j.as_f64()), Some(10.0));
        let m = parsed.get("metrics").unwrap();
        let pass = m.get("pass_ms").unwrap();
        assert_eq!(pass.get("value").and_then(|j| j.as_f64()), Some(1.25));
        assert_eq!(pass.get("unit").and_then(|j| j.as_str()), Some("ms"));
    }
}
