//! What every workload shares: arguments, the record of one run, the
//! loop of whole passes that splits a traced run into its untraced and
//! traced shares, and the result line.

use crate::alloc;
use crate::trace::{ObsSnapshot, Tracer};
use inconsist::constraints::ConstraintSet;
use inconsist::relational::{Database, Value};
use inconsist_formats::{load_csv, parse_dc_file};
use std::collections::BTreeMap;
use std::time::Instant;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("step_p50_us", "us"),
    ("step_p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run. A layer a workload does not run
/// reads 0. Times and counts are per step unless README.md says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("step.mean_us", "us"),
    ("unaccounted_us", "us"),
    ("trace.overhead_us", "us"),
    ("formats.load_csv_us", "us"),
    ("formats.parse_dc_us", "us"),
    ("wire.create_parse_us", "us"),
    ("wire.codec_us", "us"),
    ("server.request_us", "us"),
    ("server.unaccounted_us", "us"),
    ("frontend.gap_us", "us"),
    ("session.cache_hit_reads", "count"),
    ("session.warm_reads", "count"),
    ("durable.append_us", "us"),
    ("durable.fsyncs", "count"),
    ("durable.snapshot_us", "us"),
    ("durable.wal_bytes_per_op", "B"),
    ("constraints.mis_us", "us"),
    ("constraints.mis_sets", "count"),
    ("graph.build_us", "us"),
    ("core.suite_us", "us"),
    ("core.index_build_us", "us"),
    ("core.apply_us", "us"),
    ("core.measure_reads_us", "us"),
    ("core.filter_minimal_us", "us"),
    ("core.solve_dirty_us", "us"),
    ("core.solve_lp_us", "us"),
    ("core.tuple_scores_us", "us"),
    ("solver.vertex_cover_us", "us"),
    ("solver.simplex_us", "us"),
    ("solver.bb_nodes", "count"),
    ("index.filter_runs", "count"),
    ("index.cover_solves", "count"),
    ("index.cover_cache_hits", "count"),
    ("clean.softclean_us", "us"),
    ("clean.cells_considered", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
];

/// Share of `--seconds` a traced run spends untraced, to measure the
/// tracing overhead against.
const UNTRACED_SHARE: f64 = 0.3;

/// The end-to-end times are reported on a nominal machine on which the
/// calibration kernel ([`Kernel`]) takes this long. The host's speed
/// drifts by tens of percent, and up to twofold, over tens of seconds;
/// the kernel, timed all through the run, measures that drift so that most
/// of it cancels (README.md, *Steadiness*).
pub const CAL_NOMINAL_US: f64 = 1_750.0;
/// Minimum spacing of calibration samples between steps.
const CAL_EVERY_MS: u128 = 100;
/// Calibration samples taken before each set-up and after the last one.
const CAL_BURST: usize = 5;
/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_MIN_S`] (at most [`SETUP_MAX_REPS`] times).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 5.0;
const SETUP_MAX_REPS: usize = 101;

/// One closed pass, raw: its time, its median and 95th-percentile step,
/// and the median calibration kernel time of the samples taken in it.
struct Pass {
    s: f64,
    p50_us: f64,
    p95_us: f64,
    cal_us: f64,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Record {
    pub setup_s: Vec<f64>,
    pub step_us: Vec<f64>,
    passes: Vec<Pass>,
    /// Steps and calibration samples recorded before the open pass began.
    pass_start: usize,
    pass_cal_start: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values of a traced run, by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    /// What the global registry gained inside the timed steps of the
    /// traced share (see [`obs_begin`](Self::obs_begin)).
    pub obs: ObsSnapshot,
    obs_mark: Option<ObsSnapshot>,
    /// Mean step time of the untraced share of a traced run.
    untraced_step_mean_us: f64,
    open_pass: Option<f64>,
    kernel: Kernel,
    /// Calibration kernel times, sampled around the set-ups, which scale
    /// `setup_s`, and between steps, which scale the step times.
    setup_cal_us: Vec<f64>,
    cal_us: Vec<f64>,
    last_cal: Option<Instant>,
}

impl Record {
    /// Counts one operation, failed if any check left an error.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            if self.failed <= 5 {
                for e in errors {
                    eprintln!("check failed: {e}");
                }
            }
        }
    }

    pub fn begin_pass(&mut self) {
        self.open_pass = Some(0.0);
        self.pass_start = self.step_us.len();
        self.pass_cal_start = self.cal_us.len();
    }

    /// Records one timed step of the open pass.
    pub fn step(&mut self, us: f64) {
        self.step_us.push(us);
        if let Some(p) = self.open_pass.as_mut() {
            *p += us;
        }
        self.calibrate_now_and_then();
    }

    /// Runs the calibration kernel unless the last sample is recent.
    fn calibrate_now_and_then(&mut self) {
        if self
            .last_cal
            .is_none_or(|t| t.elapsed().as_millis() >= CAL_EVERY_MS)
        {
            self.cal_us.push(self.kernel.time_us());
            self.last_cal = Some(Instant::now());
        }
    }

    /// Takes [`CAL_BURST`] calibration samples for `setup_s`. A set-up
    /// may last seconds, so the samples are taken around each one rather
    /// than between steps.
    fn calibrate_setup(&mut self) {
        for _ in 0..CAL_BURST {
            self.setup_cal_us.push(self.kernel.time_us());
        }
    }

    /// Repeats a set-up (see [`SETUP_MIN_REPS`]); `once` returns its
    /// result and the seconds it timed. Returns the last result.
    pub fn set_up<T>(
        &mut self,
        mut once: impl FnMut() -> Result<(T, f64), String>,
    ) -> Result<T, String> {
        let mut last = None;
        let mut total = 0.0;
        while self.setup_s.len() < SETUP_MIN_REPS
            || (total < SETUP_MIN_S && self.setup_s.len() < SETUP_MAX_REPS)
        {
            self.calibrate_setup();
            let (value, seconds) = once()?;
            self.setup_s.push(seconds);
            total += seconds;
            last = Some(value);
        }
        self.calibrate_setup();
        Ok(last.expect("set-up ran at least once"))
    }

    /// Closes the open pass; its time is the sum of its steps. Its
    /// figures are scaled by the kernel samples taken during the pass,
    /// so that each is scaled by the host's speed at the time.
    pub fn end_pass(&mut self) {
        if let Some(us) = self.open_pass.take() {
            if self.cal_us.len() == self.pass_cal_start {
                self.cal_us.push(self.kernel.time_us());
            }
            let steps = sorted(&self.step_us[self.pass_start..]);
            self.passes.push(Pass {
                s: us / 1e6,
                p50_us: quantile(&steps, 0.5),
                p95_us: quantile(&steps, 0.95),
                cal_us: quantile(&sorted(&self.cal_us[self.pass_cal_start..]), 0.5),
            });
        }
    }

    /// Marks the global registry before a run of timed steps (traced
    /// share only; `on` is the tracer's state).
    pub fn obs_begin(&mut self, on: bool) {
        if on {
            self.obs_mark = Some(ObsSnapshot::global());
        }
    }

    /// Adds what the global registry gained since [`obs_begin`](Self::obs_begin).
    pub fn obs_end(&mut self) {
        if let Some(before) = self.obs_mark.take() {
            self.obs.accumulate(&before, &ObsSnapshot::global());
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Steps of the traced share (the per-step denominator).
    pub fn steps(&self) -> f64 {
        self.step_us.len().max(1) as f64
    }

    /// Sets the per-layer metrics every workload derives the same way
    /// (mean step, unaccounted time, tracing overhead, allocations, the
    /// program's spans) and writes the spans to
    /// `.bench_out/trace-<workload>-<seed>.jsonl`.
    pub fn common_layers(&mut self, tracer: &Tracer, args: &RunArgs) -> Result<(), String> {
        let steps = self.steps();
        let mean = self.step_us.iter().sum::<f64>() / steps;
        self.layer("step.mean_us", mean);
        self.layer("unaccounted_us", tracer.unaccounted_us("step") / steps);
        self.layer("trace.overhead_us", mean - self.untraced_step_mean_us);
        let (count, bytes) = alloc::counts();
        self.layer("alloc.count", count as f64 / steps);
        self.layer("alloc.bytes", bytes as f64 / steps);
        for (metric, span) in [
            ("core.filter_minimal_us", "index.filter_minimal"),
            ("core.solve_dirty_us", "solve.dirty_component"),
            ("core.solve_lp_us", "solve.lp"),
            ("solver.vertex_cover_us", "solver.vertex_cover"),
            ("solver.simplex_us", "solver.simplex"),
            ("solver.bb_nodes", "solver_bb_nodes_total"),
        ] {
            let d = self.obs.sum(span, &[]);
            self.layer(metric, d / steps);
        }
        let totals = tracer.totals_us();
        for (metric, span) in [
            ("formats.load_csv_us", "formats.load_csv"),
            ("formats.parse_dc_us", "formats.parse_dc"),
            ("core.suite_us", "core.suite"),
            ("core.index_build_us", "core.index_build"),
            ("core.apply_us", "core.apply"),
            ("core.measure_reads_us", "core.measure_reads"),
            ("core.tuple_scores_us", "core.tuple_scores"),
            ("clean.softclean_us", "clean.softclean"),
        ] {
            if let Some(us) = totals.get(span) {
                self.layer(metric, us / steps);
            }
        }
        let path = format!(".bench_out/trace-{}-{}.jsonl", args.workload, args.seed);
        tracer
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))
    }

    /// The result line.
    pub fn to_outcome(&self, trace: bool) -> Outcome {
        let metrics = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            let median = |v: &[f64]| quantile(&sorted(v), 0.5);
            // Raw, or scaled to the nominal machine by the kernel samples
            // taken at the same time.
            let scale = |cal_us: f64, scaled: bool| {
                if scaled {
                    CAL_NOMINAL_US / cal_us
                } else {
                    1.0
                }
            };
            let figures = |scaled: bool| {
                let of_passes = |f: fn(&Pass) -> f64| {
                    let v: Vec<f64> = (self.passes.iter())
                        .map(|p| f(p) * scale(p.cal_us, scaled))
                        .collect();
                    median(&v)
                };
                [
                    median(&self.setup_s) * scale(median(&self.setup_cal_us), scaled),
                    of_passes(|p| p.s),
                    of_passes(|p| p.p50_us),
                    of_passes(|p| p.p95_us),
                ]
            };
            let (raw, scaled) = (figures(false), figures(true));
            eprintln!(
                "calibration kernel: median {:.1} us over {} samples around the set-ups, \
                 {:.1} us over {} samples between steps",
                median(&self.setup_cal_us),
                self.setup_cal_us.len(),
                median(&self.cal_us),
                self.cal_us.len()
            );
            eprintln!(
                "raw: setup_s={} pass_s={} step_p50_us={} step_p95_us={}",
                raw[0], raw[1], raw[2], raw[3]
            );
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = match n {
                        "setup_s" => scaled[0],
                        "pass_s" => scaled[1],
                        "step_p50_us" => scaled[2],
                        "step_p95_us" => scaled[3],
                        "peak_rss_mb" => peak_rss_mb(),
                        _ => unreachable!("every end-to-end metric is computed"),
                    };
                    (n, v, u)
                })
                .collect()
        };
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Runs whole passes until `args.seconds` have elapsed. A traced run
/// spends its first share untraced (to measure the tracing overhead) and
/// the rest with `tracer` on; only the traced share's steps stay in
/// `rec`.
pub fn drive(
    args: &RunArgs,
    rec: &mut Record,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Record, &mut Tracer) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let until = |share: f64| move || start.elapsed().as_secs_f64() < args.seconds * share;
    if !args.trace {
        loop {
            pass(rec, tracer)?;
            if !until(1.0)() {
                return Ok(());
            }
        }
    }
    let mut off = Tracer::new(false);
    loop {
        pass(rec, &mut off)?;
        if !until(UNTRACED_SHARE)() {
            break;
        }
    }
    rec.untraced_step_mean_us = rec.step_us.iter().sum::<f64>() / rec.steps();
    rec.step_us.clear();
    rec.passes.clear();
    loop {
        pass(rec, tracer)?;
        if !until(1.0)() {
            return Ok(());
        }
    }
}

type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Bytes of the text the calibration kernel validates.
const KERNEL_TEXT_BYTES: usize = 256 * 1024;

/// The calibration kernel: a fixed piece of the kinds of work the program
/// does, sharing no code with it: sorting and hash grouping on a working
/// set of a few hundred KiB, sorting a small array over and over in the
/// L1 cache, and validating text as UTF-8 as a parser does. Of the
/// kernels tried, the three together followed the program's speed most
/// evenly across its kinds of work (README.md, *Steadiness*). The kernel
/// keeps its buffers from one sample to the next, so after the first
/// sample it allocates nothing: it times the host's speed at that work,
/// not page faults, and leaves the program's heap as it was.
#[derive(Default)]
struct Kernel {
    keys: Vec<u64>,
    groups: std::collections::HashMap<u64, Vec<u64>, FixedState>,
    text: Vec<u8>,
}

impl Kernel {
    /// Runs the kernel once; returns its time in microseconds.
    fn time_us(&mut self) -> f64 {
        if self.text.is_empty() {
            let line = b"4711,Vienna,AT,2021-06-20,0.25\n";
            self.text = line
                .iter()
                .copied()
                .cycle()
                .take(KERNEL_TEXT_BYTES)
                .collect();
        }
        let t = Instant::now();
        self.keys.clear();
        self.keys
            .extend((0..12_500u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7));
        self.keys.sort_unstable();
        for group in self.groups.values_mut() {
            group.clear();
        }
        for (i, x) in self.keys.iter().enumerate() {
            self.groups.entry(x % 2039).or_default().push(i as u64);
        }
        let mut small = [0u64; 1024];
        let mut sum = 0u64;
        for round in 0..40u64 {
            for (i, x) in small.iter_mut().enumerate() {
                *x = (i as u64 ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            }
            small.sort_unstable();
            sum = sum.wrapping_add(small[512]);
        }
        let stride = KERNEL_TEXT_BYTES / 64;
        for i in 0..64 {
            let rest = std::hint::black_box(&self.text[i * stride..]);
            sum += std::str::from_utf8(rest).map_or(0, |s| s.len() as u64);
        }
        std::hint::black_box(sum + self.groups.values().map(|g| g.len() as u64).sum::<u64>());
        us_since(t)
    }
}

/// A sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Interpolated quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A dataset as the program receives it: CSV and `.dc` text.
pub struct TextInput {
    pub name: String,
    pub csv: String,
    pub dc: String,
}

/// Loads a [`TextInput`] the way `inconsist measure` does, inside the
/// `formats.load_csv` and `formats.parse_dc` spans.
pub fn load_text(
    input: &TextInput,
    tracer: &mut Tracer,
) -> Result<(Database, ConstraintSet), String> {
    let loaded = tracer.span("formats.load_csv", || load_csv(&input.csv, &input.name))?;
    let dcs = tracer.span("formats.parse_dc", || {
        parse_dc_file(&loaded.schema, &input.name, &input.dc)
    })?;
    let mut cs = ConstraintSet::new(loaded.schema.clone());
    for dc in dcs {
        cs.add_dc(dc);
    }
    Ok((loaded.db, cs))
}

/// A value as it appears in a CSV cell or an `.ops` line.
pub fn value_text(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => s.to_string(),
    }
}

/// Appends `msg()` to `errors` unless `ok`.
pub fn expect(errors: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        errors.push(msg());
    }
}

/// Equality of measure values up to float rounding of sums.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// The result line of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
