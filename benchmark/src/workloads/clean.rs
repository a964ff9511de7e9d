//! `clean`: the Fig. 7 pipeline. SoftClean receives the first k
//! constraints for k = 1..|Σ| on noisy Hospital, and the measure suite
//! runs after each k. SoftClean's cost depends steeply on which cells the
//! noise hit, so a pass runs the pipeline on several independent
//! instances at once: one step is one k on every instance, one pass is
//! every k.

use crate::harness::{self, expect, load_text, us_since, Outcome, Record, RunArgs, TextInput};
use crate::reference;
use crate::trace::Tracer;
use inconsist::constraints::ConstraintSet;
use inconsist::measures::MeasureOptions;
use inconsist::relational::{Database, RelId, Value};
use inconsist::suite::MeasureSuite;
use inconsist_clean::SoftClean;
use inconsist_formats::write_csv;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;

/// Independent noisy instances per pass, fixed draws (sub-seeds 0..8).
pub const INSTANCES: usize = 8;
/// Hospital tuples per instance.
pub const TUPLES: usize = 50;
/// RNoise level: share of cells modified.
pub const NOISE: f64 = 0.02;
const COMMITTED_DIGEST: &str = include_str!("../../softclean.digest");

fn suite() -> MeasureSuite {
    MeasureSuite {
        options: MeasureOptions::default(),
        skip_mc: true,
        ..Default::default()
    }
}

/// One noisy instance, loaded, with its constraint prefixes.
struct Instance {
    base: Database,
    cs: ConstraintSet,
    prefixes: Vec<ConstraintSet>,
}

/// What one pass of the pipeline left on one instance.
struct Cleaned {
    db: Database,
    cells_changed: usize,
    cells_considered: usize,
}

/// One pass of the pipeline over copies of every instance.
fn pipeline(
    instances: &[Instance],
    rec: &mut Record,
    tr: &mut Tracer,
    step_id: &mut u64,
) -> Vec<Cleaned> {
    let cleaner = SoftClean::default();
    let suite = suite();
    let mut out: Vec<Cleaned> = instances
        .iter()
        .map(|s| Cleaned {
            db: s.base.clone(),
            cells_changed: 0,
            cells_considered: 0,
        })
        .collect();
    let ks = instances
        .iter()
        .map(|s| s.prefixes.len())
        .max()
        .unwrap_or(0);
    for k in 0..ks {
        tr.set_step(*step_id);
        *step_id += 1;
        let t = Instant::now();
        let root = tr.begin("step");
        let mut measured = Vec::with_capacity(instances.len());
        for (s, c) in instances.iter().zip(out.iter_mut()) {
            let Some(prefix) = s.prefixes.get(k) else {
                continue;
            };
            let report = tr.span("clean.softclean", || cleaner.clean(&mut c.db, prefix));
            c.cells_changed += report.cells_changed;
            c.cells_considered += report.cells_considered;
            measured.push(tr.span("core.suite", || suite.eval_all(&s.cs, &c.db)));
        }
        tr.end(root);
        rec.step(us_since(t));

        let mut errors = Vec::new();
        for ((s, c), m) in instances.iter().zip(&out).zip(&measured) {
            let r = reference::evaluate(&c.db, &s.cs);
            let (mi, p) = (m.mi_count, m.problematic);
            expect(&mut errors, mi == Ok(r.i_mi) && p == Ok(r.i_p), || {
                format!(
                    "k={}: I_MI {mi:?} I_P {p:?}, reference {} {}",
                    k + 1,
                    r.i_mi,
                    r.i_p
                )
            });
        }
        rec.op(errors);
    }
    out
}

/// Checks a cleaned database against its input: same tuple ids, every
/// changed cell holds a value of that attribute's input active domain,
/// and no more cells changed than the reports say.
fn check_cleaned(base: &Database, cleaned: &Cleaned) -> Vec<String> {
    let mut errors = Vec::new();
    let ids: Vec<_> = base.ids().collect();
    expect(
        &mut errors,
        ids == cleaned.db.ids().collect::<Vec<_>>(),
        || "cleaning changed the tuple ids".into(),
    );
    let arity = base.schema().relation(RelId(0)).arity();
    let domains: Vec<HashSet<&Value>> = (0..arity)
        .map(|a| base.iter().map(|f| &f.values[a]).collect())
        .collect();
    let mut changed = 0;
    for id in ids {
        let (Some(before), Some(after)) = (base.fact(id), cleaned.db.fact(id)) else {
            continue;
        };
        for (a, domain) in domains.iter().enumerate() {
            if before.values[a] != after.values[a] {
                changed += 1;
                expect(&mut errors, domain.contains(&after.values[a]), || {
                    format!(
                        "{id:?} attribute {a} got {:?}, outside the input domain",
                        after.values[a]
                    )
                });
            }
        }
    }
    expect(&mut errors, changed <= cleaned.cells_changed, || {
        format!(
            "{changed} cells changed, the reports say {}",
            cleaned.cells_changed
        )
    });
    errors
}

fn set_up(seed: u64, rec: &mut Record) -> Result<Vec<Instance>, String> {
    // The instances are fixed draws, and `seed` only sets the order in
    // which a step cleans them. SoftClean's time moves by a quarter
    // between noise draws, and its slowest step by a sixth between row
    // orders of the same draws, even summed over the instances, which
    // would drown the change a later run is meant to show (README.md,
    // *Steadiness*).
    let mut inputs: Vec<TextInput> = (0..INSTANCES)
        .map(|i| super::progress::prepare(i as u64, TUPLES, NOISE).map(|h| h.input))
        .collect::<Result<_, _>>()?;
    inputs.rotate_left((seed % INSTANCES as u64) as usize);
    let suite = suite();
    // Set-up: CSV text until the step-0 suite answers, every instance.
    let loaded = rec.set_up(|| {
        let t = Instant::now();
        let mut loaded = Vec::new();
        for input in &inputs {
            let (db, cs) = load_text(input, &mut Tracer::new(false))?;
            let report = suite.eval_all(&cs, &db);
            loaded.push((db, cs, report));
        }
        Ok((loaded, t.elapsed().as_secs_f64()))
    })?;
    let mut instances = Vec::new();
    let mut errors = Vec::new();
    for (base, cs, report) in loaded {
        let r = reference::evaluate(&base, &cs);
        expect(
            &mut errors,
            report.mi_count == Ok(r.i_mi) && report.problematic == Ok(r.i_p),
            || {
                format!(
                    "step 0: suite {report:?}, reference I_MI {} I_P {}",
                    r.i_mi, r.i_p
                )
            },
        );
        let prefixes = (1..=cs.len()).map(|k| cs.prefix(k)).collect();
        instances.push(Instance { base, cs, prefixes });
    }
    rec.op(errors);
    Ok(instances)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut rec = Record::default();
    let mut tracer = Tracer::new(args.trace);
    let instances = set_up(args.seed, &mut rec)?;
    let mut step_id = 0u64;
    let mut considered = 0usize;
    harness::drive(args, &mut rec, &mut tracer, |rec, tr| {
        rec.begin_pass();
        rec.obs_begin(tr.enabled());
        let cleaned = pipeline(&instances, rec, tr, &mut step_id);
        rec.obs_end();
        rec.end_pass();
        let mut errors = Vec::new();
        for (s, c) in instances.iter().zip(&cleaned) {
            if tr.enabled() {
                considered += c.cells_considered;
            }
            errors.extend(check_cleaned(&s.base, c));
        }
        rec.op(errors);
        Ok(())
    })?;
    if args.trace {
        rec.common_layers(&tracer, args)?;
        let steps = rec.steps();
        rec.layer("clean.cells_considered", considered as f64 / steps);
    }
    Ok(rec.to_outcome(args.trace))
}

/// FNV-1a, 64 bit: a digest that stays the same across Rust releases.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `--digest`: one pipeline pass over the instances in their own order;
/// prints the digest of the cleaned CSVs and compares it with the
/// committed one.
pub fn digest_command() -> ExitCode {
    let mut rec = Record::default();
    let instances = match set_up(0, &mut rec) {
        Ok(instances) => instances,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let cleaned = pipeline(&instances, &mut rec, &mut Tracer::new(false), &mut 0);
    let text: String = cleaned.iter().map(|c| write_csv(&c.db, RelId(0))).collect();
    let digest = format!("{:016x}", fnv1a(&text));
    let committed = COMMITTED_DIGEST.trim();
    println!("softclean digest: {digest}; committed: {committed}");
    if digest == committed && rec.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
