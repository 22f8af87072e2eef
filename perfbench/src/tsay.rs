//! `tsay-suite`: the paper's experiment on r1–r5 with 20k-cycle streams.
//! One pass routes every design under Equation 3, evaluates it, reduces
//! gates, evaluates the reduced tree, verifies it, and ends with two
//! incremental ECO operations on r5.

use std::time::Instant;

use gcr_core::{evaluate_with_mask, reduce_gates_untied, route_gated, ReductionParams};
use gcr_cts::{run_greedy_exhaustive_with_scratch, GreedyParams, GreedyScratch};
use gcr_workloads::{TsayBenchmark, WorkloadParams};

use crate::flow::{self, Design, EcoOps};
use crate::harness::{PassResult, Workload};
use crate::probe::Probe;

/// Designs whose pruned decision log is compared with the exhaustive
/// engine's (the larger ones take seconds exhaustively).
const EXHAUSTIVE_CHECKED: usize = 3;

/// ECO operations per pass: with the five design flows an odd operation
/// count, so the median falls inside one kind of operation.
const ECO_OPS: usize = 2;

/// Gate-reduction strength of the pass (§4.3, untie mode).
const REDUCTION_STRENGTH: f64 = 0.3;

pub struct TsaySuite {
    seed: u64,
    threads: usize,
    designs: Vec<Design>,
    eco: Option<EcoOps>,
    scratch: GreedyScratch,
}

impl TsaySuite {
    pub fn new(seed: u64, threads: usize) -> Self {
        Self {
            seed,
            threads,
            designs: Vec::new(),
            eco: None,
            scratch: GreedyScratch::new(),
        }
    }

    /// The stage-by-stage route equals `route_gated`'s, and on r1–r3
    /// its decision log equals the exhaustive engine's.
    fn check_entry_points(&mut self) -> Result<(), String> {
        let off = Probe::off();
        for (i, d) in self.designs.iter().enumerate() {
            let staged = flow::route_flat(
                &d.sinks,
                &d.module_of,
                &d.tables,
                &d.config,
                self.threads,
                &mut self.scratch,
                &off,
            )?;
            let entry = route_gated(&d.sinks, &d.tables, &d.config)
                .map_err(|e| format!("{}: route_gated failed: {e}", d.name))?;
            if entry.topology != staged.routing.topology || entry.tree != staged.routing.tree {
                return Err(format!(
                    "{}: stage-by-stage routing differs from route_gated",
                    d.name
                ));
            }
            if i < EXHAUSTIVE_CHECKED {
                let mut objective = gcr_core::GatedObjective::new(
                    d.config.tech(),
                    d.config.controller(),
                    &d.tables,
                    &d.sinks,
                    &d.module_of,
                );
                let params = GreedyParams {
                    threads: Some(1),
                    log_decisions: true,
                };
                let mut scratch = GreedyScratch::new();
                run_greedy_exhaustive_with_scratch(
                    d.sinks.len(),
                    &mut objective,
                    &params,
                    &mut scratch,
                )
                .map_err(|e| format!("{}: exhaustive greedy failed: {e}", d.name))?;
                if scratch.decisions() != staged.decisions.as_slice() {
                    return Err(format!(
                        "{}: pruned decision log differs from the exhaustive engine's",
                        d.name
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Workload for TsaySuite {
    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn setup(&mut self, probe: &Probe) -> Result<(), String> {
        let params = WorkloadParams::default();
        self.designs = TsayBenchmark::ALL
            .into_iter()
            .map(|b| Design::generate(b, &params, Some(self.seed), probe))
            .collect::<Result<_, _>>()?;
        let r5 = self.designs.last().ok_or("no designs")?;
        self.eco = Some(EcoOps::new(r5, self.seed, ECO_OPS, 1));
        Ok(())
    }

    fn pass(&mut self, probe: &Probe) -> Result<PassResult, String> {
        let mut out = PassResult::default();
        let mut last = None;
        for d in &self.designs {
            let t = Instant::now();
            let routed = flow::route_flat(
                &d.sinks,
                &d.module_of,
                &d.tables,
                &d.config,
                self.threads,
                &mut self.scratch,
                probe,
            )?;
            let gated = flow::evaluate(&routed.routing, &d.config, probe);
            let tech = d.config.tech();
            let (mask, reduced) = probe.layer("bench.reduce", || {
                let star_len = d.config.die().half_perimeter() / 8.0;
                let mask = reduce_gates_untied(
                    &routed.routing,
                    tech,
                    &ReductionParams::from_strength_scaled(REDUCTION_STRENGTH, tech, star_len),
                );
                let reduced = evaluate_with_mask(
                    &routed.routing.tree,
                    &routed.routing.node_stats,
                    d.config.controller(),
                    tech,
                    &mask,
                );
                (mask, reduced)
            });
            let input = flow::verify_input(&routed.routing, &d.tables, &d.config)
                .with_decision_log(&routed.decisions)
                .with_controlled(&mask)
                .with_power_report(&reduced);
            let errors = flow::verify_errors(&input, probe);
            out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if errors > 0 || !gated.total_switched_cap.is_finite() {
                eprintln!("{}: {errors} verifier errors", d.name);
                out.failed += 1;
            }
            out.switched_cap_pf += reduced.total_switched_cap;
            last = Some(routed);
        }
        let routed = last.ok_or("no designs")?;
        let d = self.designs.last().ok_or("no designs")?;
        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.run(d, &routed.routing, self.threads, probe, &mut out)?;
        Ok(out)
    }

    fn check_after(&mut self) -> Result<(), String> {
        self.check_entry_points()?;
        let off = Probe::off();
        let d = self.designs.last().ok_or("no designs")?;
        let scratch = &mut self.scratch;
        let threads = self.threads;
        let routed = flow::route_flat(
            &d.sinks,
            &d.module_of,
            &d.tables,
            &d.config,
            threads,
            scratch,
            &off,
        )?;
        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.check_quality(d, &routed.routing, threads, |sinks, module_of| {
            flow::flat_cap(d, sinks, module_of, threads, scratch)
        })
    }
}
