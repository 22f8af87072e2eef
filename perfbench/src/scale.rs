//! `scale-r6`: r6 (30k sinks) through `route_gated_coarsened`, then
//! evaluation, verification and one incremental ECO.

use std::time::Instant;

use gcr_core::{gated_region_factory, route_gated_coarsened_traced, GatedObjective, GatedRouting};
use gcr_cts::{
    run_greedy_coarsened, CoarsenParams, CoarsenScratch, GreedyParams, MergeDecision, Topology,
};
use gcr_workloads::{TsayBenchmark, WorkloadParams};

use crate::flow::{self, Design, EcoOps};
use crate::harness::{PassResult, Workload};
use crate::probe::Probe;

pub struct ScaleR6 {
    seed: u64,
    threads: usize,
    design: Option<Design>,
    eco: Option<EcoOps>,
    /// Topology of the first pass, compared with every later pass's and
    /// with the logged runs of the final check.
    checked: Option<Topology>,
}

impl ScaleR6 {
    pub fn new(seed: u64, threads: usize) -> Self {
        Self {
            seed,
            threads,
            design: None,
            eco: None,
            checked: None,
        }
    }

    fn params(threads: usize, log_decisions: bool) -> CoarsenParams {
        CoarsenParams {
            greedy: GreedyParams {
                threads: Some(threads),
                log_decisions,
            },
            target_region_size: 0,
        }
    }

    fn route(&self, d: &Design, probe: &Probe) -> Result<GatedRouting, String> {
        probe
            .layer("bench.route", || {
                route_gated_coarsened_traced(
                    &d.sinks,
                    &d.module_of,
                    &d.tables,
                    &d.config,
                    &Self::params(self.threads, false),
                    &probe.tracer,
                )
            })
            .map_err(|e| format!("coarsened route failed: {e}"))
    }
}

/// The coarsened engine's topology and decision log at `threads`.
fn coarsened_log(d: &Design, threads: usize) -> Result<(Topology, Vec<MergeDecision>), String> {
    let mut objective = GatedObjective::new(
        d.config.tech(),
        d.config.controller(),
        &d.tables,
        &d.sinks,
        &d.module_of,
    );
    let factory = gated_region_factory(
        d.config.tech(),
        d.config.controller(),
        &d.tables,
        &d.sinks,
        &d.module_of,
    );
    let mut scratch = CoarsenScratch::new();
    let (topology, _, _) = run_greedy_coarsened(
        d.sinks.len(),
        &mut objective,
        factory,
        &ScaleR6::params(threads, true),
        &mut scratch,
    )
    .map_err(|e| format!("coarsened greedy failed at {threads} threads: {e}"))?;
    Ok((topology, scratch.decisions().to_vec()))
}

impl Workload for ScaleR6 {
    fn tail_percentile(&self) -> f64 {
        50.0
    }

    fn setup(&mut self, probe: &Probe) -> Result<(), String> {
        let params = WorkloadParams::default();
        let design = Design::generate(TsayBenchmark::R6, &params, Some(self.seed), probe)?;
        self.eco = Some(EcoOps::new(&design, self.seed, 1, 1));
        self.design = Some(design);
        Ok(())
    }

    fn pass(&mut self, probe: &Probe) -> Result<PassResult, String> {
        let d = self.design.as_ref().ok_or("no design")?;
        let mut out = PassResult::default();
        let t = Instant::now();
        let routing = self.route(d, probe)?;
        let report = flow::evaluate(&routing, &d.config, probe);
        out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let input = flow::verify_input(&routing, &d.tables, &d.config).with_power_report(&report);
        let errors = flow::verify_errors(&input, probe);
        out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let same =
            self.checked.get_or_insert_with(|| routing.topology.clone()) == &routing.topology;
        if errors > 0 || !same {
            eprintln!("r6: {errors} verifier errors or a topology change");
            out.failed += 1;
        }
        out.switched_cap_pf = report.total_switched_cap;

        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.run(d, &routing, self.threads, probe, &mut out)?;
        Ok(out)
    }

    fn check_after(&mut self) -> Result<(), String> {
        let off = Probe::off();
        let d = self.design.as_ref().ok_or("no design")?;
        let (one, log_one) = coarsened_log(d, 1)?;
        // The measured runs' thread count, also in the traced run, whose
        // passes run at 1 thread.
        let many_threads = crate::measured_threads();
        if many_threads > 1 {
            let (many, log_many) = coarsened_log(d, many_threads)?;
            if log_one != log_many || one != many {
                return Err(format!(
                    "decision log differs between 1 and {many_threads} threads"
                ));
            }
        } else {
            eprintln!("check skipped: one core, no second thread count to compare");
        }
        if self.checked.as_ref() != Some(&one) {
            return Err("route_gated_coarsened topology differs from the logged run".to_owned());
        }
        flow::check_leaves(&one, d.sinks.len())?;
        let routing = self.route(d, &off)?;
        let threads = self.threads;
        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.check_quality(d, &routing, threads, |sinks, module_of| {
            let fresh = route_gated_coarsened_traced(
                sinks,
                module_of,
                &d.tables,
                &d.config,
                &Self::params(threads, false),
                &off.tracer,
            )
            .map_err(|e| format!("coarsened route of the edited design failed: {e}"))?;
            Ok(flow::evaluate(&fresh, &d.config, &off).total_switched_cap)
        })
    }
}
