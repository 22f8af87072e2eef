//! Spans recorded from the benchmark's own code around calls into each
//! layer, plus the library spans of the existing `*_traced` entry points
//! those calls reach. A disabled probe costs one branch per layer call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use gcr_trace::{ChromeTraceSink, TraceEvent, TraceSink, Tracer};

use crate::mem;

/// Buffers events until the harness takes them after each pass.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

/// Sends every event to the per-pass recorder and the Chrome trace.
struct Tee {
    recorder: Arc<Recorder>,
    chrome: Arc<ChromeTraceSink>,
}

impl TraceSink for Tee {
    fn record(&self, event: TraceEvent) {
        self.chrome.record(event.clone());
        self.recorder.record(event);
    }
}

/// The tracer handed to every layer call, and what it collected.
pub struct Probe {
    /// Disabled for measured (untraced) runs.
    pub tracer: Tracer,
    sinks: Option<(Arc<Recorder>, Arc<ChromeTraceSink>)>,
    /// Allocation events per layer span. The counter is process-wide, so
    /// the counts are exact only when every engine runs on the calling
    /// thread, as in the traced runs.
    layer_allocs: RefCell<BTreeMap<&'static str, u64>>,
}

/// What one traced pass recorded.
#[derive(Debug, Default)]
pub struct PassTrace {
    /// Span name → (total ns, self ns). Self time is only resolved for
    /// begin/end spans; after-the-fact complete spans report total = self.
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    /// Counter name → sum of reported values.
    pub counters: BTreeMap<&'static str, f64>,
    /// Layer span name → allocation events inside it.
    pub allocs: BTreeMap<&'static str, u64>,
}

impl PassTrace {
    /// Total milliseconds spent in spans named `name`.
    #[must_use]
    pub fn ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(t, _)| t as f64 / 1e6)
    }

    /// Sum of the values reported under counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

impl Probe {
    /// A probe that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            tracer: Tracer::disabled(),
            sinks: None,
            layer_allocs: RefCell::new(BTreeMap::new()),
        }
    }

    /// A recording probe.
    #[must_use]
    pub fn traced() -> Self {
        let recorder = Arc::new(Recorder::default());
        let chrome = Arc::new(ChromeTraceSink::new());
        let tee = Tee {
            recorder: Arc::clone(&recorder),
            chrome: Arc::clone(&chrome),
        };
        Self {
            tracer: Tracer::new(Arc::new(tee)),
            sinks: Some((recorder, chrome)),
            layer_allocs: RefCell::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`, counting its allocations.
    pub fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracer.enabled() {
            return f();
        }
        let _span = self.tracer.span(name);
        let before = mem::allocs();
        let out = f();
        *self.layer_allocs.borrow_mut().entry(name).or_default() += mem::allocs() - before;
        out
    }

    /// Takes everything recorded since the last call.
    pub fn take_pass(&self) -> PassTrace {
        let Some((recorder, _)) = &self.sinks else {
            return PassTrace::default();
        };
        let mut trace = aggregate(&recorder.take());
        trace.allocs = std::mem::take(&mut *self.layer_allocs.borrow_mut());
        trace
    }

    /// Writes the Chrome trace of everything recorded so far.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), String> {
        match &self.sinks {
            Some((_, chrome)) => std::fs::write(path, chrome.to_json())
                .map_err(|e| format!("writing {}: {e}", path.display())),
            None => Ok(()),
        }
    }
}

/// Folds an event list into per-name span totals, self times and
/// counter sums. Begin/end pairs nest by order; an end closes the most
/// recent open span of its name.
#[must_use]
pub fn aggregate(events: &[TraceEvent]) -> PassTrace {
    let mut out = PassTrace::default();
    // (name, start, time covered by direct children)
    let mut open: Vec<(&'static str, u64, u64)> = Vec::new();
    for event in events {
        match event {
            TraceEvent::Begin { name, ts_ns } => open.push((name, *ts_ns, 0)),
            TraceEvent::End { name, ts_ns } => {
                let Some(at) = open.iter().rposition(|o| o.0 == *name) else {
                    continue;
                };
                let (name, start, children) = open.remove(at);
                let total = ts_ns.saturating_sub(start);
                let entry = out.spans.entry(name).or_default();
                entry.0 += total;
                entry.1 += total.saturating_sub(children);
                if let Some(parent) = open[..at].last_mut() {
                    parent.2 += total;
                }
            }
            TraceEvent::Complete { name, dur_ns, .. } => {
                let entry = out.spans.entry(name).or_default();
                entry.0 += dur_ns;
                entry.1 += dur_ns;
            }
            TraceEvent::Counter { name, value, .. } => {
                *out.counters.entry(name).or_default() += value;
            }
            TraceEvent::Warn { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let ev = |b: bool, name: &'static str, ts_ns: u64| {
            if b {
                TraceEvent::Begin { name, ts_ns }
            } else {
                TraceEvent::End { name, ts_ns }
            }
        };
        let events = vec![
            ev(true, "pass", 0),
            ev(true, "route", 10),
            ev(true, "greedy", 20),
            ev(false, "greedy", 70),
            ev(false, "route", 90),
            ev(true, "verify", 90),
            ev(false, "verify", 95),
            ev(false, "pass", 100),
            TraceEvent::Counter {
                name: "evals",
                value: 3.0,
                ts_ns: 100,
            },
            TraceEvent::Counter {
                name: "evals",
                value: 4.0,
                ts_ns: 100,
            },
        ];
        let t = aggregate(&events);
        assert_eq!(t.spans["pass"], (100, 15));
        assert_eq!(t.spans["route"], (80, 30));
        assert_eq!(t.spans["greedy"], (50, 50));
        assert_eq!(t.spans["verify"], (5, 5));
        assert_eq!(t.counter("evals"), 7.0);
    }

    #[test]
    fn layer_counts_allocations_only_when_traced() {
        let off = Probe::off();
        assert_eq!(off.layer("x", || 5), 5);
        assert!(off.take_pass().spans.is_empty());

        let on = Probe::traced();
        let v = on.layer("alloc", || vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        let t = on.take_pass();
        assert!(t.spans.contains_key("alloc"));
        assert!(t.allocs["alloc"] >= 1);
        assert!(on.take_pass().spans.is_empty());
    }
}
