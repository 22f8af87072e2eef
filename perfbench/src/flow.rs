//! The routing flow the batch workloads share, called stage by stage
//! (objective → pruned greedy → zero-skew embedding) so that the thread
//! count is explicit and every stage shows as its own layer span.

use std::time::Instant;

use gcr_activity::ActivityTables;
use gcr_core::{
    evaluate_traced, route_gated_eco_with_params, DeviceRole, GatedEcoResult, GatedObjective,
    GatedRouting, PowerReport, RouterConfig,
};
use gcr_cts::{
    canonical_decision_log, embed_sized_traced, run_greedy_with_scratch_traced, DeviceAssignment,
    EcoEdit, EcoScratch, GreedyParams, GreedyScratch, MergeDecision, Sink, SizingLimits, TopoNode,
    Topology,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_verify::{Severity, Verifier, VerifyInput};
use gcr_workloads::{
    generate_eco_stream, EcoStreamParams, TsayBenchmark, Workload, WorkloadParams,
};

use crate::harness::PassResult;
use crate::probe::Probe;

/// One generated design: sinks, activity tables and router settings.
pub struct Design {
    /// Benchmark name (`r1` …).
    pub name: &'static str,
    /// The clock sinks.
    pub sinks: Vec<Sink>,
    /// Sink → activity-model module.
    pub module_of: Vec<usize>,
    /// Scanned activity tables.
    pub tables: ActivityTables,
    /// Technology, die, source and controller plan.
    pub config: RouterConfig,
}

/// Largest sink displacement of the seeded jitter, as a share of the
/// die side.
pub const JITTER: f64 = 0.002;

impl Design {
    /// Generates `which` with `params` through the workload layer, then
    /// moves every sink by a `jitter_seed`-drawn offset of at most
    /// [`JITTER`] of the die side (clamped to the die). The jitter gives
    /// every seed its own placement while keeping the design's size,
    /// clustering and activity — and so its cost — what the paper's
    /// parameters make them.
    pub fn generate(
        which: TsayBenchmark,
        params: &WorkloadParams,
        jitter_seed: Option<u64>,
        probe: &Probe,
    ) -> Result<Self, String> {
        let workload = probe
            .layer("bench.generate", || Workload::generate(which, params))
            .map_err(|e| format!("{which}: workload generation failed: {e}"))?;
        let module_of = workload.module_of();
        let die = workload.benchmark.die;
        let mut sinks = workload.benchmark.sinks;
        if let Some(seed) = jitter_seed {
            jitter(&mut sinks, die, seed);
        }
        let config = RouterConfig::new(Technology::default(), die);
        Ok(Self {
            name: which.name(),
            sinks,
            module_of,
            tables: workload.tables,
            config,
        })
    }
}

/// Moves each sink by a seeded offset of at most [`JITTER`] of the die
/// side per axis, clamped to the die.
pub fn jitter(sinks: &mut [Sink], die: BBox, seed: u64) {
    let reach = JITTER * (die.max().x - die.min().x).max(die.max().y - die.min().y);
    for (i, sink) in sinks.iter_mut().enumerate() {
        let r = mix(seed, i as u64);
        // Two 26-bit fractions in [-1, 1).
        let u = ((r >> 38) as f64 / f64::from(1u32 << 25)) - 1.0;
        let v = (((r >> 12) & 0x3ff_ffff) as f64 / f64::from(1u32 << 25)) - 1.0;
        let at = sink.location();
        let to = Point::new(
            (at.x + u * reach).clamp(die.min().x, die.max().x),
            (at.y + v * reach).clamp(die.min().y, die.max().y),
        );
        *sink = Sink::new(to, sink.cap());
    }
}

/// A routed design and its decision log.
pub struct Routed {
    /// The embedded, fully gated routing.
    pub routing: GatedRouting,
    /// The committed merges, in order.
    pub decisions: Vec<MergeDecision>,
}

/// Routes `sinks` under the Equation-3 objective with an explicit thread
/// count, logging decisions: the stages `route_gated` composes.
pub fn route_flat(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
    threads: usize,
    scratch: &mut GreedyScratch,
    probe: &Probe,
) -> Result<Routed, String> {
    let mut objective = probe.layer("bench.objective", || {
        GatedObjective::new(config.tech(), config.controller(), tables, sinks, module_of)
    });
    let params = GreedyParams {
        threads: Some(threads),
        log_decisions: true,
    };
    let (topology, _, _) = probe
        .layer("bench.greedy", || {
            run_greedy_with_scratch_traced(
                sinks.len(),
                &mut objective,
                &params,
                scratch,
                &probe.tracer,
            )
        })
        .map_err(|e| format!("greedy failed: {e}"))?;
    let decisions = scratch.decisions().to_vec();
    let assignment = DeviceAssignment::everywhere(&topology, config.tech().and_gate());
    let tree = probe
        .layer("bench.embed", || {
            embed_sized_traced(
                &topology,
                sinks,
                config.tech(),
                &assignment,
                config.source(),
                SizingLimits::default(),
                &probe.tracer,
            )
        })
        .map_err(|e| format!("embedding failed: {e}"))?;
    let node_stats = objective.node_stats();
    let node_modules = objective.node_modules();
    Ok(Routed {
        routing: GatedRouting {
            topology,
            assignment,
            tree,
            node_stats,
            node_modules,
        },
        decisions,
    })
}

/// W of a from-scratch route of `sinks` (with `module_of`) under
/// `design`'s tables and settings: the reference an ECO result is held to.
pub fn flat_cap(
    design: &Design,
    sinks: &[Sink],
    module_of: &[usize],
    threads: usize,
    scratch: &mut GreedyScratch,
) -> Result<f64, String> {
    let off = Probe::off();
    let d = design;
    let fresh = route_flat(
        sinks, module_of, &d.tables, &d.config, threads, scratch, &off,
    )?;
    Ok(evaluate(&fresh.routing, &d.config, &off).total_switched_cap)
}

/// Equation-3 evaluation of a fully gated routing.
pub fn evaluate(routing: &GatedRouting, config: &RouterConfig, probe: &Probe) -> PowerReport {
    probe.layer("bench.evaluate", || {
        evaluate_traced(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            config.tech(),
            DeviceRole::Gate,
            &probe.tracer,
        )
    })
}

/// Runs the default lint suite with every context the flow has and
/// returns its error count.
pub fn verify_errors(input: &VerifyInput<'_>, probe: &Probe) -> usize {
    let report = probe.layer("bench.verify", || {
        Verifier::with_default_lints().run_traced(input, &probe.tracer)
    });
    report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// The verifier input for a gated routing of `design`.
pub fn verify_input<'a>(
    routing: &'a GatedRouting,
    tables: &'a ActivityTables,
    config: &'a RouterConfig,
) -> VerifyInput<'a> {
    VerifyInput::new(&routing.tree, config.tech())
        .with_die(config.die())
        .with_controller(config.controller())
        .with_tables(tables)
        .with_node_stats(&routing.node_stats)
}

/// Edits per mixed ECO batch.
pub const ECO_BATCH: usize = 4;

/// The first batch of a seeded edit stream against `design` (valid
/// against the design as routed). `params` fixes the edit mix and the
/// batch size.
#[must_use]
pub fn eco_batch(design: &Design, params: &EcoStreamParams) -> Vec<EcoEdit> {
    let modules = design.tables.rtl().num_modules();
    generate_eco_stream(&design.sinks, design.config.die(), modules, params)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// A mixed batch (moves, adds, removes, activity swaps) of
/// [`ECO_BATCH`] edits drawn from `seed`.
#[must_use]
pub fn mixed_batch(design: &Design, seed: u64) -> Vec<EcoEdit> {
    eco_batch(
        design,
        &EcoStreamParams::default()
            .with_seed(seed)
            .with_batches(1, ECO_BATCH),
    )
}

/// Incrementally re-routes `routing` of `design` under `edits` and
/// evaluates the result.
pub fn eco(
    design: &Design,
    routing: &GatedRouting,
    edits: &[EcoEdit],
    threads: usize,
    scratch: &mut EcoScratch,
    probe: &Probe,
) -> Result<(GatedEcoResult, PowerReport), String> {
    let params = GreedyParams {
        threads: Some(threads),
        log_decisions: false,
    };
    let result = probe
        .layer("bench.eco", || {
            route_gated_eco_with_params(
                routing,
                &design.sinks,
                &design.module_of,
                edits,
                &design.tables,
                &design.config,
                &params,
                scratch,
                &probe.tracer,
            )
        })
        .map_err(|e| format!("{}: eco failed: {e}", design.name))?;
    probe
        .tracer
        .counter("bench.eco_replayed", result.outcome.replayed as f64);
    probe
        .tracer
        .counter("bench.eco_spliced", result.outcome.spliced as f64);
    let report = evaluate(&result.routing, &design.config, probe);
    Ok((result, report))
}

/// The ECO quality contract: an incremental re-route's switched
/// capacitance is within `1 + eps` of a from-scratch route of the same
/// edited design.
pub const ECO_EPS: f64 = 0.10;

/// Checks `eco_cap` against `scratch_cap`, a from-scratch route's.
pub fn check_eco_quality(
    name: &str,
    batch: usize,
    eco_cap: f64,
    scratch_cap: f64,
) -> Result<(), String> {
    if eco_cap <= (1.0 + ECO_EPS) * scratch_cap {
        Ok(())
    } else {
        Err(format!(
            "{name} batch {batch}: ECO W {eco_cap} exceeds (1 + {ECO_EPS}) x from-scratch W {scratch_cap}"
        ))
    }
}

/// The incremental re-routes a batch workload ends each pass with:
/// operations of `per_op` seeded mixed batches each, applied one after
/// another to the pass's last routing. An operation's latency is the
/// whole group's; its ECO latency is the group's mean per batch, which
/// averages out how much work a single drawn batch happens to carry.
pub struct EcoOps {
    batches: Vec<Vec<EcoEdit>>,
    per_op: usize,
    /// W each batch produced the first time, for the determinism check.
    caps: Vec<Option<f64>>,
    scratch: EcoScratch,
}

impl EcoOps {
    /// `ops` operations of `per_op` batches against `design`, drawn
    /// from `seed`.
    #[must_use]
    pub fn new(design: &Design, seed: u64, ops: usize, per_op: usize) -> Self {
        let count = ops * per_op;
        Self {
            batches: (0..count)
                .map(|b| mixed_batch(design, mix(seed, 5 + b as u64)))
                .collect(),
            per_op,
            caps: vec![None; count],
            scratch: EcoScratch::new(),
        }
    }

    /// Runs every operation against `routing`; a batch whose W differs
    /// from its first W fails its operation.
    pub fn run(
        &mut self,
        design: &Design,
        routing: &GatedRouting,
        threads: usize,
        probe: &Probe,
        out: &mut PassResult,
    ) -> Result<(), String> {
        let mut caps = self.caps.iter_mut();
        for op in self.batches.chunks(self.per_op) {
            let t = Instant::now();
            let mut ok = true;
            for batch in op {
                let (_, report) = eco(design, routing, batch, threads, &mut self.scratch, probe)?;
                let cap = report.total_switched_cap;
                let seen = caps.next().ok_or("ECO batch without a slot")?;
                ok &= seen.get_or_insert(cap).to_bits() == cap.to_bits();
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.op_ms.push(ms);
            out.eco_ms.push(ms / op.len() as f64);
            if !ok {
                out.failed += 1;
            }
        }
        Ok(())
    }

    /// Checks every batch's W against `fresh(sinks, module_of)`, the W of
    /// a from-scratch route of the edited design.
    pub fn check_quality(
        &mut self,
        design: &Design,
        routing: &GatedRouting,
        threads: usize,
        mut fresh: impl FnMut(&[Sink], &[usize]) -> Result<f64, String>,
    ) -> Result<(), String> {
        let off = Probe::off();
        for (b, batch) in self.batches.iter().enumerate() {
            let (edited, report) = eco(design, routing, batch, threads, &mut self.scratch, &off)?;
            let scratch_cap = fresh(&edited.sinks, &edited.module_of)?;
            check_eco_quality(design.name, b, report.total_switched_cap, scratch_cap)?;
        }
        Ok(())
    }
}

/// 64-bit FNV-1a, the digest `gcrd` reports as `log_hash`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a decision log's canonical text.
#[must_use]
pub fn log_hash(decisions: &[MergeDecision]) -> u64 {
    fnv1a(canonical_decision_log(decisions).as_bytes())
}

/// Checks that every sink `0..n` is exactly one leaf of `topology`.
pub fn check_leaves(topology: &Topology, n: usize) -> Result<(), String> {
    let mut seen = vec![0u32; n];
    for i in 0..topology.len() {
        if let TopoNode::Leaf { sink } = topology.node(i) {
            match seen.get_mut(sink) {
                Some(c) => *c += 1,
                None => return Err(format!("leaf names sink {sink} of {n}")),
            }
        }
    }
    match seen.iter().position(|&c| c != 1) {
        Some(s) => Err(format!("sink {s} appears as {} leaves", seen[s])),
        None => Ok(()),
    }
}

/// Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn jitter_is_seeded_small_and_inside_the_die() {
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let base: Vec<Sink> = (0..100)
            .map(|i| Sink::new(Point::new(f64::from(i) * 10.0, 1000.0 - f64::from(i)), 0.05))
            .collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        jitter(&mut a, die, 1);
        jitter(&mut b, die, 1);
        jitter(&mut c, die, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (s, j) in base.iter().zip(&a) {
            let (p, q) = (s.location(), j.location());
            assert!((p.x - q.x).abs() <= 2.0 && (p.y - q.y).abs() <= 2.0);
            assert!(die.contains(q));
            assert_eq!(s.cap(), j.cap());
        }
    }

    #[test]
    fn verifier_flags_an_edited_switched_capacitance() {
        let params = WorkloadParams::smoke();
        let d = Design::generate(TsayBenchmark::R1, &params, Some(3), &Probe::off()).unwrap();
        let off = Probe::off();
        let routed = route_flat(
            &d.sinks,
            &d.module_of,
            &d.tables,
            &d.config,
            1,
            &mut GreedyScratch::new(),
            &off,
        )
        .unwrap();
        let report = evaluate(&routed.routing, &d.config, &off);
        let input = verify_input(&routed.routing, &d.tables, &d.config)
            .with_decision_log(&routed.decisions);
        assert_eq!(
            verify_errors(&input.clone().with_power_report(&report), &off),
            0
        );
        let mut edited = report.clone();
        edited.total_switched_cap *= 1.001;
        assert!(verify_errors(&input.clone().with_power_report(&edited), &off) > 0);
        // A decision log that does not match the tree.
        let mut log = routed.decisions.clone();
        log.swap(0, 1);
        assert!(verify_errors(&input.with_decision_log(&log), &off) > 0);
    }

    #[test]
    fn eco_quality_check_enforces_the_contract() {
        assert!(check_eco_quality("r1", 0, 110.0, 100.0).is_ok());
        assert!(check_eco_quality("r1", 0, 110.001, 100.0).is_err());
    }

    #[test]
    fn leaf_check_rejects_missing_and_duplicate_sinks() {
        let t = Topology::from_merges(3, &[(0, 1), (3, 2)]).unwrap();
        assert!(check_leaves(&t, 3).is_ok());
        assert!(check_leaves(&t, 4).is_err());
        assert!(check_leaves(&t, 2).is_err());
    }
}
