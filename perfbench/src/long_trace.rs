//! `long-trace`: one r2-sized design fed by multi-million-cycle streamed
//! traces of two activity scenarios. A pass streams each trace through
//! `scan_source`, routes the design under the scanned tables and
//! evaluates it, then re-gates the last routing incrementally.

use std::time::Instant;

use gcr_activity::{
    scan_source, scan_source_traced, ActivityTables, CpuModel, InstructionId, ScanParams,
    ScanScratch, SliceSource, TraceSource, DEFAULT_CHUNK_CYCLES,
};
use gcr_cts::GreedyScratch;
use gcr_workloads::{ActivityScenario, TsayBenchmark, WorkloadParams};

use crate::flow::{self, Design, EcoOps};
use crate::harness::{Metrics, PassResult, Workload};
use crate::probe::{PassTrace, Probe};
use crate::stats;
use crate::DEFAULT_SEED;

/// Cycles per streamed trace.
pub const TRACE_CYCLES: u64 = 4_000_000;

/// The scenarios a pass streams, in order.
const SCENARIOS: [ActivityScenario; 2] =
    [ActivityScenario::Bursty, ActivityScenario::PhaseChanging];

/// Batches of the pass's one ECO operation: r2 re-routes in a few
/// milliseconds, so one batch's cost would mostly show which edits the
/// seed drew.
const ECO_BATCHES: usize = 8;

/// Repetitions of the traced-only production/counting split.
const SPLIT_REPS: usize = 3;

pub struct LongTrace {
    seed: u64,
    threads: usize,
    design: Option<Design>,
    models: Vec<CpuModel>,
    eco: Option<EcoOps>,
    scan: ScanScratch,
    greedy: GreedyScratch,
    /// Tables the first timed pass streamed, per scenario.
    streamed: Vec<ActivityTables>,
}

impl LongTrace {
    pub fn new(seed: u64, threads: usize) -> Self {
        Self {
            seed,
            threads,
            design: None,
            models: Vec::new(),
            eco: None,
            scan: ScanScratch::new(),
            greedy: GreedyScratch::new(),
            streamed: Vec::new(),
        }
    }

    fn params(&self) -> ScanParams {
        ScanParams {
            threads: Some(self.threads),
            ..ScanParams::default()
        }
    }
}

/// `design` gated by `tables` instead of its own.
fn with_tables(design: &Design, tables: ActivityTables) -> Design {
    Design {
        name: design.name,
        sinks: design.sinks.clone(),
        module_of: design.module_of.clone(),
        tables,
        config: design.config.clone(),
    }
}

/// Checks `streamed` against `ActivityTables::scan` over the first
/// `cycles` cycles of `model`'s trace, materialised.
fn check_streamed(model: &CpuModel, cycles: u64, streamed: &ActivityTables) -> Result<(), String> {
    let stream = model.generate_stream(cycles as usize);
    let reference = ActivityTables::scan(model.rtl(), &stream);
    if reference.ift() == streamed.ift() && reference.itmatt() == streamed.itmatt() {
        Ok(())
    } else {
        Err("streamed tables differ from the materialised scan".to_owned())
    }
}

impl Workload for LongTrace {
    fn tail_percentile(&self) -> f64 {
        75.0
    }

    fn setup(&mut self, probe: &Probe) -> Result<(), String> {
        let params = WorkloadParams::default();
        let design = Design::generate(TsayBenchmark::R2, &params, Some(self.seed), probe)?;
        let modules = design.tables.rtl().num_modules();
        self.models = probe
            .layer("bench.generate", || {
                SCENARIOS
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.model(modules, DEFAULT_SEED + i as u64))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("scenario model: {e}"))?;
        self.eco = Some(EcoOps::new(&design, self.seed, 1, ECO_BATCHES));
        self.design = Some(design);
        Ok(())
    }

    fn pass(&mut self, probe: &Probe) -> Result<PassResult, String> {
        let design = self.design.as_ref().ok_or("no design")?;
        let params = self.params();
        let mut out = PassResult::default();
        let mut last = None;
        for model in &self.models {
            let t = Instant::now();
            let mut source = model.trace_source(TRACE_CYCLES);
            let (tables, _) = probe
                .layer("bench.scan", || {
                    scan_source_traced(
                        model.rtl(),
                        &mut source,
                        &params,
                        &mut self.scan,
                        &probe.tracer,
                    )
                })
                .map_err(|e| format!("scan failed: {e}"))?;
            let routed = flow::route_flat(
                &design.sinks,
                &design.module_of,
                &tables,
                &design.config,
                self.threads,
                &mut self.greedy,
                probe,
            )?;
            let report = flow::evaluate(&routed.routing, &design.config, probe);
            out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.switched_cap_pf += report.total_switched_cap;
            if self.streamed.len() < SCENARIOS.len() {
                self.streamed.push(tables.clone());
            }
            last = Some((routed, tables));
        }
        // Re-gate the last routing under the edit batch, against the
        // tables it was routed with.
        let (routed, tables) = last.ok_or("no scenarios")?;
        let regated = with_tables(design, tables);
        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.run(&regated, &routed.routing, self.threads, probe, &mut out)?;
        Ok(out)
    }

    fn check_after(&mut self) -> Result<(), String> {
        if self.streamed.len() != self.models.len() {
            return Err("no streamed tables recorded".to_owned());
        }
        for ((model, streamed), scenario) in self.models.iter().zip(&self.streamed).zip(SCENARIOS) {
            check_streamed(model, TRACE_CYCLES, streamed)
                .map_err(|e| format!("{scenario}: {e}"))?;
        }
        let design = self.design.as_ref().ok_or("no design")?;
        let off = Probe::off();
        let regated = with_tables(design, self.streamed.last().ok_or("no tables")?.clone());
        let threads = self.threads;
        let scratch = &mut self.greedy;
        let routed = flow::route_flat(
            &regated.sinks,
            &regated.module_of,
            &regated.tables,
            &regated.config,
            threads,
            scratch,
            &off,
        )?;
        let eco = self.eco.as_mut().ok_or("no ECO batches")?;
        eco.check_quality(&regated, &routed.routing, threads, |sinks, module_of| {
            flow::flat_cap(&regated, sinks, module_of, threads, scratch)
        })
    }

    fn layer_metrics(&mut self, traces: &[PassTrace], out: &mut Metrics) -> Result<(), String> {
        // Trace production alone: drain each generator through one
        // chunk buffer. Counting alone: scan a pre-materialised copy of
        // the same cycles.
        let mut produce = Vec::new();
        let mut count = Vec::new();
        let params = ScanParams {
            threads: Some(1),
            ..ScanParams::default()
        };
        let streams: Vec<_> = self
            .models
            .iter()
            .map(|m| m.generate_stream(TRACE_CYCLES as usize))
            .collect();
        for _ in 0..SPLIT_REPS {
            let t = Instant::now();
            let mut buf = vec![InstructionId::default(); DEFAULT_CHUNK_CYCLES];
            let mut drained = 0u64;
            for model in &self.models {
                let mut source = model.trace_source(TRACE_CYCLES);
                loop {
                    let n = source.next_chunk(&mut buf).map_err(|e| e.to_string())?;
                    if n == 0 {
                        break;
                    }
                    std::hint::black_box(&buf[..n]);
                    drained += n as u64;
                }
            }
            std::hint::black_box(drained);
            produce.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            for (model, stream) in self.models.iter().zip(&streams) {
                let mut source = SliceSource::new(stream);
                let tables = scan_source(model.rtl(), &mut source, &params, &mut self.scan)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(tables);
            }
            count.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let scan_ms = stats::median(
            &traces
                .iter()
                .map(|t| t.ms("bench.scan"))
                .collect::<Vec<_>>(),
        );
        let cycles = (TRACE_CYCLES as usize * SCENARIOS.len()) as f64;
        out.set("activity.produce_ms", stats::median(&produce), "ms");
        out.set("activity.count_ms", stats::median(&count), "ms");
        out.set("activity.scan_ms", scan_ms, "ms");
        out.set("activity.mcycles_per_s", cycles / scan_ms / 1e3, "Mcycle/s");
        let allocs: Vec<f64> = traces
            .iter()
            .map(|t| t.allocs.get("bench.scan").copied().unwrap_or(0) as f64)
            .collect();
        out.set("activity.allocs", stats::median(&allocs), "count");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streamed(model: &CpuModel, cycles: u64) -> ActivityTables {
        let params = ScanParams {
            threads: Some(2),
            chunk_cycles: 1000,
            ..ScanParams::default()
        };
        let mut source = model.trace_source(cycles);
        scan_source(model.rtl(), &mut source, &params, &mut ScanScratch::new())
            .unwrap()
            .0
    }

    #[test]
    fn table_check_passes_exact_tables_and_fails_perturbed_ones() {
        let model = ActivityScenario::PhaseChanging.model(24, 3).unwrap();
        let tables = streamed(&model, 20_000);
        assert!(check_streamed(&model, 20_000, &tables).is_ok());
        // One cycle fewer perturbs every probability slightly.
        let short = streamed(&model, 19_999);
        assert!(check_streamed(&model, 20_000, &short).is_err());
        // Tables of another trace of the same shape.
        let other = ActivityScenario::PhaseChanging.model(24, 4).unwrap();
        assert!(check_streamed(&model, 20_000, &streamed(&other, 20_000)).is_err());
    }
}
