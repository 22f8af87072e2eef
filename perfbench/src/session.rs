//! `gcrd-session`: a live `gcrd` daemon driven as a closed loop over its
//! NDJSON wire protocol. Each connection owns its designs and sends one
//! request at a time; a pass is one round of every connection's script.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gcr_bench::json::{self, Json};
use gcr_cts::{plan_eco_leaves, EcoEdit, EcoScratch, GreedyScratch};
use gcr_workloads::{EcoStreamParams, TsayBenchmark, WorkloadParams};

use crate::flow::{self, Design};
use crate::harness::{Metrics, PassResult, Workload};
use crate::mem;
use crate::probe::{PassTrace, Probe};
use crate::stats;
use crate::DEFAULT_SEED;

/// Activity-stream length of every session design.
pub const STREAM_LEN: usize = 2_000;

/// The designs each connection owns.
const OWNED: [TsayBenchmark; 3] = [TsayBenchmark::R1, TsayBenchmark::R2, TsayBenchmark::R3];

/// Requests per design in a connection's script (see [`script`]).
const PER_DESIGN: usize = 6;

/// How long to wait for the daemon to start or stop.
const DAEMON_WAIT: Duration = Duration::from_secs(20);

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `route`, expected to replay the routing cache.
    Route,
    /// `eco` with the design's edit batch.
    Eco,
    /// `evaluate` right after the design's `eco`: it should report the
    /// edited design's W (`docs/service.md` §3).
    Evaluate,
    /// `verify`: cached routing plus the full lint suite.
    Verify,
    /// `route` with `"force": true`: a from-scratch re-route.
    Force,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Route => "route",
            Kind::Evaluate => "evaluate",
            Kind::Eco => "eco",
            Kind::Verify => "verify",
            Kind::Force => "route_force",
        }
    }
}

/// One scripted request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Index into the session's designs.
    pub design: usize,
    /// What it asks.
    pub kind: Kind,
    /// The request line without its `id`.
    pub body: String,
}

/// A design one connection owns.
pub struct Owned {
    bench: TsayBenchmark,
    seed: u64,
    design: Design,
    /// One single-sink move, valid against the routed design: a
    /// request's cost then depends on the design, not on which edit
    /// kinds the seed happened to draw.
    batch: Vec<EcoEdit>,
}

/// The workload seed of design `j` of connection `c`: fixed, so every
/// run serves the same designs; `--seed` draws their ECO batches.
fn design_seed(c: usize, j: usize) -> u64 {
    DEFAULT_SEED + 100 * c as u64 + j as u64
}

/// Generates every connection's designs and their ECO batches.
pub fn owned_designs(seed: u64, conns: usize, probe: &Probe) -> Result<Vec<Owned>, String> {
    let mut out = Vec::new();
    for c in 0..conns {
        for (j, bench) in OWNED.into_iter().enumerate() {
            let s = design_seed(c, j);
            let params = WorkloadParams::smoke()
                .with_stream_len(STREAM_LEN)
                .with_seed(s);
            let design = Design::generate(bench, &params, None, probe)?;
            let moves = EcoStreamParams::single_sink_moves(1, flow::mix(seed, s));
            let batch = flow::eco_batch(&design, &moves);
            out.push(Owned {
                bench,
                seed: s,
                design,
                batch,
            });
        }
    }
    Ok(out)
}

fn edit_json(e: &EcoEdit) -> String {
    match *e {
        EcoEdit::AddSink { sink, module } => format!(
            "{{\"op\":\"add_sink\",\"x\":{},\"y\":{},\"load\":{},\"module\":{module}}}",
            sink.location().x,
            sink.location().y,
            sink.cap()
        ),
        EcoEdit::MoveSink { index, to } => format!(
            "{{\"op\":\"move_sink\",\"index\":{index},\"x\":{},\"y\":{}}}",
            to.x, to.y
        ),
        EcoEdit::RemoveSink { index } => format!("{{\"op\":\"remove_sink\",\"index\":{index}}}"),
        EcoEdit::SwapActivity { module } => {
            format!("{{\"op\":\"swap_activity\",\"module\":{module}}}")
        }
    }
}

/// Every connection's request script: per owned design a cache-hit
/// route and a verify; the ECO batch and an evaluate of the edited
/// design; a forced re-route, which puts the unedited routing back in
/// the cache, and a verify of it. Two fast cache hits, two verifies and
/// two slow requests (ECO, forced route) per design put the median
/// request in the middle of the verifies, instead of where one kind
/// meets another. A pure function of the designs, hence of the seed.
pub fn script(designs: &[Owned], conns: usize) -> Vec<Vec<Op>> {
    let per = designs.len() / conns.max(1);
    (0..conns)
        .map(|c| {
            let mut ops = Vec::with_capacity(per * PER_DESIGN);
            for (i, d) in designs.iter().enumerate().skip(c * per).take(per) {
                let key = format!(
                    "\"benchmark\":\"{}\",\"stream_len\":{STREAM_LEN},\"seed\":{}",
                    d.bench.name(),
                    d.seed
                );
                let mut push = |kind: Kind, body: String| {
                    ops.push(Op {
                        design: i,
                        kind,
                        body,
                    })
                };
                push(Kind::Route, format!("\"cmd\":\"route\",{key}"));
                push(Kind::Verify, format!("\"cmd\":\"verify\",{key}"));
                let edits: Vec<String> = d.batch.iter().map(edit_json).collect();
                push(
                    Kind::Eco,
                    format!("\"cmd\":\"eco\",{key},\"edits\":[{}]", edits.join(",")),
                );
                push(Kind::Evaluate, format!("\"cmd\":\"evaluate\",{key}"));
                push(
                    Kind::Force,
                    format!("\"cmd\":\"route\",{key},\"force\":true"),
                );
                push(Kind::Verify, format!("\"cmd\":\"verify\",{key}"));
            }
            ops
        })
        .collect()
}

/// One connection to the daemon.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    name: usize,
}

impl Client {
    fn connect(addr: &str, name: usize) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
            next_id: 0,
            name,
        })
    }

    /// Sends one request body and waits for its response line.
    fn call(&mut self, body: &str) -> Result<(Json, f64), String> {
        self.next_id += 1;
        let line = format!("{{\"id\":\"c{}-{}\",{body}}}\n", self.name, self.next_id);
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        let j = json::parse(response.trim_end()).map_err(|e| format!("response: {e}"))?;
        Ok((j, ms))
    }
}

/// Runs `f` on every client with its script, one thread per client, and
/// returns the results in client order.
fn on_each_client<T: Send>(
    clients: &mut [Client],
    script: &[Vec<Op>],
    f: impl Fn(&mut Client, &[Op]) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(script)
            .map(|(client, ops)| scope.spawn(move || f(client, ops)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect()
    })
}

/// A running daemon.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(gcrd: &PathBuf, workers: usize, trace: Option<&PathBuf>) -> Result<Self, String> {
        let mut cmd = Command::new(gcrd);
        cmd.args(["--addr", "127.0.0.1:0", "--queue", "64", "--threads", "1"])
            .args(["--workers", &workers.to_string()])
            .args(["--design-cache", "16", "--routing-cache", "32"])
            .args(["--stream-len", &STREAM_LEN.to_string()])
            .env_remove("GCR_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", gcrd.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout unavailable".to_owned());
        };
        let mut stdout = BufReader::new(out);
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {first:?}"))
            }
        }
    }

    /// Asks the daemon to drain and stop, then waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr, 999)
            .and_then(|mut c| c.call("\"cmd\":\"shutdown\""))
            .map(|(j, _)| j.get("status").and_then(Json::as_str) == Some("ok"));
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                    return match asked {
                        Ok(true) if status.success() => Ok(()),
                        Ok(_) => Err(format!("daemon shutdown: not ok, exit {status}")),
                        Err(e) => Err(format!("daemon shutdown: {e}")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not stop; killed".to_owned());
                }
            }
        }
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
struct Answer {
    kind: Kind,
    hit: bool,
    ms: f64,
}

/// Reference results of one design: the in-process single-shot route.
#[derive(Clone, Copy, Debug)]
struct Reference {
    log_hash: u64,
    cap: f64,
}

pub struct Session {
    seed: u64,
    gcrd: PathBuf,
    out_dir: PathBuf,
    /// Daemon workers, and connections driving them.
    workers: usize,
    daemon: Option<Daemon>,
    clients: Vec<Client>,
    designs: Vec<Owned>,
    script: Vec<Vec<Op>>,
    references: Vec<Reference>,
    /// W of every design's first ECO response.
    eco_caps: BTreeMap<usize, f64>,
    /// Evaluates after an ECO that reported the unedited design's W.
    stale: usize,
    /// Answers of the passes since the last set-up.
    answers: Vec<Answer>,
    rejected: usize,
}

impl Session {
    pub fn new(seed: u64, gcrd: PathBuf, out_dir: PathBuf) -> Self {
        // The daemon's pool is the service under test: its size stays the
        // measured runs' thread count in the traced run too.
        Self {
            seed,
            gcrd,
            out_dir,
            workers: crate::measured_threads(),
            daemon: None,
            clients: Vec::new(),
            designs: Vec::new(),
            script: Vec::new(),
            references: Vec::new(),
            eco_caps: BTreeMap::new(),
            stale: 0,
            answers: Vec::new(),
            rejected: 0,
        }
    }

    fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("gcrd-{}.trace.json", self.seed))
    }

    /// Checks one response; `Ok(false)` is a failed operation. `eco_cap`
    /// is the W of the design's ECO response earlier in the pass.
    fn judge(&self, op: &Op, j: &Json, eco_cap: Option<f64>) -> Result<bool, String> {
        let status = j.get("status").and_then(Json::as_str).unwrap_or("");
        if status != "ok" {
            eprintln!(
                "gcrd: {} {}: {status} {:?}",
                op.kind.label(),
                op.design,
                j.get("error")
            );
            return Ok(false);
        }
        let cap = j.get("total_switched_cap").and_then(Json::as_f64);
        Ok(match op.kind {
            Kind::Eco => cap.is_some(),
            Kind::Evaluate => cap.is_some() && cap.map(f64::to_bits) == eco_cap.map(f64::to_bits),
            _ => {
                let r = self.references.get(op.design).ok_or("no reference")?;
                let hash = format!("{:016x}", r.log_hash);
                let verified = op.kind != Kind::Verify
                    || j.get("verify_errors").and_then(Json::as_f64) == Some(0.0);
                j.get("log_hash").and_then(Json::as_str) == Some(hash.as_str())
                    && cap.map(f64::to_bits) == Some(r.cap.to_bits())
                    && verified
            }
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(mut d) = self.daemon.take() {
            let _ = d.child.kill();
            let _ = d.child.wait();
        }
    }
}

impl Workload for Session {
    fn tail_percentile(&self) -> f64 {
        99.0
    }

    fn setup(&mut self, probe: &Probe) -> Result<(), String> {
        self.designs = owned_designs(self.seed, self.workers, probe)?;
        self.script = script(&self.designs, self.workers);
        let trace = probe.tracer.enabled().then(|| self.trace_path());
        let daemon = Daemon::spawn(&self.gcrd, self.workers, trace.as_ref())?;
        self.clients = (0..self.workers)
            .map(|c| Client::connect(&daemon.addr, c))
            .collect::<Result<_, _>>()?;
        self.daemon = Some(daemon);
        // Warm both caches: the first route of every design builds it.
        on_each_client(&mut self.clients, &self.script, |client, ops| {
            for op in ops.iter().filter(|o| o.kind == Kind::Route) {
                let (j, _) = client.call(&op.body)?;
                if j.get("status").and_then(Json::as_str) != Some("ok") {
                    return Err(format!("warm-up route failed: {j:?}"));
                }
            }
            Ok(())
        })?;
        self.answers.clear();
        self.rejected = 0;
        self.stale = 0;
        Ok(())
    }

    fn check_before(&mut self) -> Result<(), String> {
        let off = Probe::off();
        let mut scratch = GreedyScratch::new();
        self.references = self
            .designs
            .iter()
            .map(|o| {
                let d = &o.design;
                let routed = flow::route_flat(
                    &d.sinks,
                    &d.module_of,
                    &d.tables,
                    &d.config,
                    1,
                    &mut scratch,
                    &off,
                )?;
                Ok(Reference {
                    log_hash: flow::log_hash(&routed.decisions),
                    cap: flow::evaluate(&routed.routing, &d.config, &off).total_switched_cap,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn pass(&mut self, _probe: &Probe) -> Result<PassResult, String> {
        let per_conn = on_each_client(&mut self.clients, &self.script, |client, ops| {
            ops.iter()
                .map(|op| client.call(&op.body))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut out = PassResult::default();
        for (c, answers) in per_conn.into_iter().enumerate() {
            let mut eco_cap = None;
            for (k, (j, ms)) in answers.into_iter().enumerate() {
                let op = &self.script[c][k];
                let mut ok = self.judge(op, &j, eco_cap)?;
                if j.get("status").and_then(Json::as_str) == Some("rejected") {
                    self.rejected += 1;
                }
                let cap = j.get("total_switched_cap").and_then(Json::as_f64);
                match (op.kind, cap) {
                    (Kind::Eco, Some(cap)) => {
                        let seen = *self.eco_caps.entry(op.design).or_insert(cap);
                        ok &= seen.to_bits() == cap.to_bits();
                        eco_cap = Some(cap);
                        out.eco_ms.push(ms);
                    }
                    (Kind::Evaluate, Some(cap)) if !ok => {
                        let unedited = self.references[op.design].cap;
                        self.stale += usize::from(cap.to_bits() == unedited.to_bits());
                    }
                    _ => {}
                }
                if !ok {
                    out.failed += 1;
                }
                out.op_ms.push(ms);
                if let (Kind::Force, true) = (op.kind, ok) {
                    out.switched_cap_pf += self.references[op.design].cap;
                }
                self.answers.push(Answer {
                    kind: op.kind,
                    hit: j.get("cache").and_then(Json::as_str) == Some("hit"),
                    ms,
                });
            }
        }
        Ok(out)
    }

    fn check_after(&mut self) -> Result<(), String> {
        if self.stale > 0 {
            eprintln!(
                "gcrd: {} evaluates after an ECO reported the unedited design's W",
                self.stale
            );
        }
        let mut scratch = GreedyScratch::new();
        for (i, o) in self.designs.iter().enumerate() {
            let d = &o.design;
            let eco_cap = *self
                .eco_caps
                .get(&i)
                .ok_or_else(|| format!("{}: no ECO answer", d.name))?;
            let plan = plan_eco_leaves(d.sinks.len(), &o.batch).map_err(|e| e.to_string())?;
            let sinks = plan.new_sinks(&d.sinks);
            let module_of = plan.new_module_of(&d.module_of);
            let scratch_cap = flow::flat_cap(d, &sinks, &module_of, 1, &mut scratch)?;
            flow::check_eco_quality(d.name, 0, eco_cap, scratch_cap)?;
        }
        Ok(())
    }

    fn child_peak_rss_mb(&self) -> Result<f64, String> {
        match &self.daemon {
            Some(d) => mem::peak_rss_mb(Some(d.child.id())),
            None => Ok(0.0),
        }
    }

    fn layer_metrics(&mut self, _traces: &[PassTrace], out: &mut Metrics) -> Result<(), String> {
        // In-process ECO and verification of the session's designs: the
        // layers the daemon's eco and verify requests run.
        let probe = Probe::traced();
        let mut scratch = GreedyScratch::new();
        let mut eco_scratch = EcoScratch::new();
        let (mut eco_ms, mut verify_ms) = (Vec::new(), Vec::new());
        let (mut replayed, mut spliced) = (0.0, 0.0);
        for o in &self.designs {
            let d = &o.design;
            let routed = flow::route_flat(
                &d.sinks,
                &d.module_of,
                &d.tables,
                &d.config,
                1,
                &mut scratch,
                &Probe::off(),
            )?;
            let report = flow::evaluate(&routed.routing, &d.config, &Probe::off());
            let input = flow::verify_input(&routed.routing, &d.tables, &d.config)
                .with_decision_log(&routed.decisions)
                .with_power_report(&report);
            let errors = flow::verify_errors(&input, &probe);
            if errors > 0 {
                return Err(format!("{}: {errors} verifier errors", d.name));
            }
            flow::eco(d, &routed.routing, &o.batch, 1, &mut eco_scratch, &probe)?;
            let t = probe.take_pass();
            verify_ms.push(t.ms("bench.verify"));
            eco_ms.push(t.ms("bench.eco"));
            replayed += t.counter("bench.eco_replayed");
            spliced += t.counter("bench.eco_spliced");
        }
        out.set("core.eco_ms", stats::median(&eco_ms), "ms");
        out.set("cts.eco_replayed", replayed, "count");
        out.set("cts.eco_spliced", spliced, "count");
        out.set("verify.run_ms", stats::median(&verify_ms), "ms");

        // Client-side latency by command and cache outcome.
        let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for a in &self.answers {
            let key = format!(
                "gcrd.{}_{}_ms",
                a.kind.label(),
                if a.hit { "hit" } else { "miss" }
            );
            by.entry(key).or_default().push(a.ms);
        }
        for key in LATENCY_KEYS {
            let v = by.get(key).map_or(f64::NAN, |v| stats::median(v));
            out.set(key, v, "ms");
        }
        let hits = self.answers.iter().filter(|a| a.hit).count() as f64;
        let all = self.answers.len() as f64;
        out.set("gcrd.hits", hits, "count");
        out.set("gcrd.misses", all - hits, "count");
        out.set("gcrd.hit_ratio", hits / all, "ratio");
        out.set("gcrd.rejected", self.rejected as f64, "count");

        // Server-side spans from the daemon's own trace.
        let text =
            std::fs::read_to_string(self.trace_path()).map_err(|e| format!("daemon trace: {e}"))?;
        let spans = daemon_spans(&text)?;
        for (metric, span) in [
            ("gcrd.parse_ms", "gcrd.parse"),
            ("gcrd.request_ms", "gcrd.request"),
            ("gcrd.respond_ms", "gcrd.respond"),
        ] {
            let v = spans.get(span).map_or(f64::NAN, |v| stats::median(v));
            out.set(metric, v, "ms");
        }
        let client: Vec<f64> = self.answers.iter().map(|a| a.ms).collect();
        let served = spans
            .get("gcrd.request")
            .map_or(f64::NAN, |v| stats::median(v));
        out.set("gcrd.queue_wait_ms", stats::median(&client) - served, "ms");
        Ok(())
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.clients.clear();
        match self.daemon.take() {
            Some(d) => d.shutdown(),
            None => Ok(()),
        }
    }
}

/// The latency-by-command metrics the traced run reports.
pub const LATENCY_KEYS: [&str; 5] = [
    "gcrd.route_hit_ms",
    "gcrd.evaluate_hit_ms",
    "gcrd.eco_hit_ms",
    "gcrd.verify_hit_ms",
    "gcrd.route_force_miss_ms",
];

/// Durations (ms) of the daemon's complete spans, by name. The Chrome
/// trace holds one event per line; each line is parsed on its own, since
/// the workspace JSON reader takes time quadratic in the length of its
/// input and a session's trace runs to megabytes.
fn daemon_spans(text: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let event = line.trim().trim_end_matches(',');
        if !event.starts_with("{\"name\"") {
            continue;
        }
        let e = json::parse(event).map_err(|e| format!("daemon trace: {e}"))?;
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        if let (Some(name), Some(dur)) = (
            e.get("name").and_then(Json::as_str),
            e.get("dur").and_then(Json::as_f64),
        ) {
            out.entry(name.to_owned()).or_default().push(dur / 1e3);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<Vec<String>> {
        let designs = owned_designs(seed, 2, &Probe::off()).unwrap();
        script(&designs, 2)
            .into_iter()
            .map(|ops| ops.into_iter().map(|o| o.body).collect())
            .collect()
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let a = lines(1998);
        assert_eq!(a, lines(1998));
        assert_ne!(a, lines(2024));
        // Each connection owns its designs: no design key is shared.
        let keys = |ops: &Vec<String>| -> Vec<String> {
            ops.iter()
                .map(|b| {
                    b.split("\"seed\":")
                        .nth(1)
                        .unwrap()
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect()
                })
                .collect()
        };
        let (k0, k1) = (keys(&a[0]), keys(&a[1]));
        assert!(k0.iter().all(|k| !k1.contains(k)));
        assert_eq!(a[0].len(), OWNED.len() * PER_DESIGN);
    }

    #[test]
    fn edits_render_as_wire_json() {
        let designs = owned_designs(7, 1, &Probe::off()).unwrap();
        for d in &designs {
            let body: Vec<String> = d.batch.iter().map(edit_json).collect();
            let line = format!(
                "{{\"id\":\"x\",\"cmd\":\"eco\",\"benchmark\":\"r1\",\"edits\":[{}]}}",
                body.join(",")
            );
            let parsed = json::parse(&line).unwrap();
            assert_eq!(
                parsed
                    .get("edits")
                    .and_then(Json::as_array)
                    .map(<[Json]>::len),
                Some(d.batch.len())
            );
        }
    }

    #[test]
    fn judge_fails_edited_or_failed_responses() {
        let mut session = Session::new(1, PathBuf::from("gcrd"), PathBuf::from("out"));
        session.references = vec![Reference {
            log_hash: 0xab,
            cap: 1.25,
        }];
        let op = |kind| Op {
            design: 0,
            kind,
            body: String::new(),
        };
        let judge_after = |kind, line: &str, eco_cap| {
            session
                .judge(&op(kind), &json::parse(line).unwrap(), eco_cap)
                .unwrap()
        };
        let judge = |kind, line: &str| judge_after(kind, line, None);
        let good = r#"{"status":"ok","log_hash":"00000000000000ab","total_switched_cap":1.25}"#;
        assert!(judge(Kind::Route, good));
        assert!(judge(Kind::Force, good));
        // An edited switched capacitance, one ulp off.
        let cap = r#"{"status":"ok","log_hash":"00000000000000ab","total_switched_cap":1.2500000000000002}"#;
        assert!(!judge(Kind::Force, cap));
        let hash = r#"{"status":"ok","log_hash":"00000000000000ac","total_switched_cap":1.25}"#;
        assert!(!judge(Kind::Route, hash));
        assert!(!judge(Kind::Route, r#"{"status":"error","error":"x"}"#));
        assert!(!judge(
            Kind::Eco,
            r#"{"status":"rejected","retry_after_ms":5}"#
        ));
        // An evaluate after an ECO must report the edited design's W,
        // not the unedited one.
        let edited = r#"{"status":"ok","log_hash":"00000000000000cd","total_switched_cap":1.5}"#;
        assert!(judge_after(Kind::Evaluate, edited, Some(1.5)));
        assert!(!judge_after(Kind::Evaluate, good, Some(1.5)));
        assert!(!judge_after(Kind::Evaluate, edited, None));
        let verified = r#"{"status":"ok","log_hash":"00000000000000ab","total_switched_cap":1.25,"verify_errors":0}"#;
        assert!(judge(Kind::Verify, verified));
        assert!(!judge(
            Kind::Verify,
            &verified.replace("\"verify_errors\":0", "\"verify_errors\":1")
        ));
        assert!(!judge(Kind::Verify, good));
    }

    #[test]
    fn daemon_spans_read_complete_events() {
        use gcr_trace::{ChromeTraceSink, TraceEvent, TraceSink};
        let sink = ChromeTraceSink::new();
        for (start_ns, dur_ns) in [(1_000, 2_500_000), (9_000, 500_000)] {
            sink.record(TraceEvent::Complete {
                name: "gcrd.request",
                start_ns,
                dur_ns,
            });
        }
        sink.record(TraceEvent::Counter {
            name: "gcrd.hits",
            value: 1.0,
            ts_ns: 3_000,
        });
        let spans = daemon_spans(&sink.to_json()).unwrap();
        assert_eq!(spans["gcrd.request"], vec![2.5, 0.5]);
        assert!(!spans.contains_key("gcrd.hits"));
    }
}
