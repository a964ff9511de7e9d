//! The benchmark's own spans, plus readers for the counters and span
//! histograms the program already exports.
//!
//! A [`Tracer`] records one span per layer call the benchmark makes:
//! name, start, end, parent and the step it belongs to. Spans stay in
//! memory and are written out as JSON lines when the run ends. A disabled
//! tracer records nothing, so the untraced run times the bare calls.

use inconsist_obs::{Sample, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NONE: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    step: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans begun from now on with step id `step`.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Opens a span under the innermost open one; returns its handle.
    /// While a root span is open the counting allocator counts.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NONE;
        }
        if self.open.is_empty() {
            crate::alloc::enable(true);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            step: self.step,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` (which must be the innermost open one).
    pub fn end(&mut self, id: usize) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        if self.open.is_empty() {
            crate::alloc::enable(false);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total inclusive microseconds per span name.
    pub fn totals_us(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// Microseconds of root spans named `root` not covered by their
    /// direct children: time the layer spans leave unexplained.
    pub fn unaccounted_us(&self, root: &str) -> f64 {
        let mut total = 0.0;
        for s in &self.spans {
            if s.name == root && s.parent == NONE {
                total += (s.end_ns - s.start_ns) as f64;
            } else if s.parent != NONE && self.spans[s.parent].name == root {
                total -= (s.end_ns - s.start_ns) as f64;
            }
        }
        total / 1e3
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step
            )?;
        }
        out.flush()
    }
}

/// A flat readout of a metric registry: counter values, and histogram
/// `(sum, count)` pairs, keyed by full (labelled) metric name.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    values: BTreeMap<String, (f64, f64)>,
}

impl ObsSnapshot {
    /// Reads the process-global registry the core and solver record into.
    pub fn global() -> ObsSnapshot {
        Self::from_samples(&inconsist_obs::global().snapshot())
    }

    fn from_samples(samples: &[Sample]) -> ObsSnapshot {
        let mut values = BTreeMap::new();
        for s in samples {
            let v = match &s.value {
                Value::Counter(c) => (*c as f64, 0.0),
                Value::Gauge { value, .. } => (*value as f64, 0.0),
                Value::Histogram(h) => (h.sum as f64, h.count() as f64),
            };
            values.insert(s.name.clone(), v);
        }
        ObsSnapshot { values }
    }

    /// Builds a snapshot from the server's `metrics` response object.
    pub fn from_metrics_json(metrics: &inconsist_server::Json) -> ObsSnapshot {
        let mut values = BTreeMap::new();
        if let inconsist_server::Json::Obj(entries) = metrics {
            for (name, v) in entries {
                let pair = match v.as_f64() {
                    Some(c) => (c, 0.0),
                    None => (
                        v.get("sum")
                            .or_else(|| v.get("value"))
                            .and_then(|x| x.as_f64())
                            .unwrap_or(0.0),
                        v.get("count").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    ),
                };
                values.insert(name.clone(), pair);
            }
        }
        ObsSnapshot { values }
    }

    /// Adds `after − before`, metric by metric.
    pub fn accumulate(&mut self, before: &ObsSnapshot, after: &ObsSnapshot) {
        for (name, (sum, count)) in &after.values {
            let (s0, c0) = before.values.get(name).copied().unwrap_or((0.0, 0.0));
            let acc = self.values.entry(name.clone()).or_insert((0.0, 0.0));
            acc.0 += sum - s0;
            acc.1 += count - c0;
        }
    }

    /// Sum over every metric whose name starts with `prefix` and contains
    /// each of `labels` (counter value, or histogram sum).
    pub fn sum(&self, prefix: &str, labels: &[&str]) -> f64 {
        self.matching(prefix, labels).map(|(s, _)| s).sum()
    }

    /// Like [`sum`](Self::sum) but for histogram sample counts.
    pub fn count(&self, prefix: &str, labels: &[&str]) -> f64 {
        self.matching(prefix, labels).map(|(_, c)| c).sum()
    }

    fn matching<'a>(
        &'a self,
        prefix: &'a str,
        labels: &'a [&'a str],
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.values
            .iter()
            .filter(move |(name, _)| {
                let base = name.split('{').next().unwrap_or("");
                base == prefix && labels.iter().all(|l| name.contains(l))
            })
            .map(|(_, v)| *v)
    }
}
