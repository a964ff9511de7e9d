//! `audit`: reliability estimation of a new dataset. The paper's eight
//! dataset shapes, each as CSV and `.dc` text, go through loading, the
//! batch path (`MeasureSuite::eval_all`, as `inconsist measure` runs it)
//! and the index path (what a session create runs). One step is one
//! instance of each of the eight shapes through both paths, so that every
//! step does alike work; one pass is every instance.

use super::Four;
use crate::harness::{
    self, close, expect, load_text, us_since, Outcome, Record, RunArgs, TextInput,
};
use crate::reference::{self, RefMeasures};
use crate::trace::Tracer;
use inconsist::graph::ConflictGraph;
use inconsist::measures::{minimum_repair_deletions, MeasureOptions};
use inconsist::suite::{MeasureSuite, SuiteReport};
use inconsist::IncrementalIndex;
use inconsist_data::{generate, DatasetId, RNoise};
use inconsist_formats::{write_csv, write_dc_file};
use std::time::Instant;

/// Instances of each dataset shape per pass (sub-seeds of `--seed`).
pub const PER_SHAPE: usize = 4;
/// Tuples per instance.
pub const TUPLES: usize = 1_000;
/// RNoise level: share of cells modified.
pub const NOISE: f64 = 0.005;
const TOP_K: usize = 10;

struct Prepared {
    input: TextInput,
    reference: RefMeasures,
}

fn prepare(seed: u64) -> Result<Vec<Prepared>, String> {
    let shapes = DatasetId::all();
    let instances = shapes.len() * PER_SHAPE;
    (0..instances)
        .map(|i| {
            let id = shapes[i % shapes.len()];
            let ds_seed = seed.wrapping_mul(instances as u64).wrapping_add(i as u64);
            let mut ds = generate(id, TUPLES, ds_seed);
            let mut noise = RNoise::new(ds_seed, 0.0);
            let steps = RNoise::iterations_for(NOISE, &ds.db);
            noise.run(&mut ds.db, &ds.constraints, steps);
            let input = TextInput {
                name: id.name().to_string(),
                csv: write_csv(&ds.db, ds.rel),
                dc: write_dc_file(ds.constraints.dcs(), ds.db.schema(), id.name()),
            };
            let (db, cs) = load_text(&input, &mut Tracer::new(false))?;
            let reference = reference::evaluate(&db, &cs);
            Ok(Prepared { input, reference })
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let datasets = prepare(args.seed)?;
    let options = MeasureOptions::default();
    let suite = MeasureSuite {
        options,
        skip_mc: true,
        ..Default::default()
    };
    let mut rec = Record::default();
    let mut tracer = Tracer::new(args.trace);

    // Set-up: every instance from text to loaded relations.
    rec.set_up(|| {
        let t = Instant::now();
        for p in &datasets {
            std::hint::black_box(load_text(&p.input, &mut Tracer::new(false))?);
        }
        Ok(((), t.elapsed().as_secs_f64()))
    })?;

    let mut step_id = 0u64;
    let mut first_pass = true;
    harness::drive(args, &mut rec, &mut tracer, |rec, tr| {
        rec.begin_pass();
        rec.obs_begin(tr.enabled());
        for batch in datasets.chunks(DatasetId::all().len()) {
            tr.set_step(step_id);
            step_id += 1;
            let t = Instant::now();
            let root = tr.begin("step");
            let mut outputs = Vec::with_capacity(batch.len());
            for p in batch {
                let (db, cs) = load_text(&p.input, tr)?;
                let report = tr.span("core.suite", || suite.eval_all(&cs, &db));
                let mut idx = tr
                    .span("core.index_build", || IncrementalIndex::build(db, cs))
                    .map_err(|e| format!("{}: index build failed: {e:?}", p.input.name))?;
                let (i_d, four) = tr.span("core.measure_reads", || {
                    (idx.i_d(), Four::read(&mut idx, &options))
                });
                let top = tr.span("core.tuple_scores", || idx.top_k_tuples(TOP_K));
                outputs.push((report, idx, i_d, four, top));
            }
            tr.end(root);
            rec.step(us_since(t));

            let mut errors = Vec::new();
            for (p, (report, mut idx, i_d, four, top)) in batch.iter().zip(outputs) {
                check(p, &report, i_d, &four, &top, &mut errors);
                if first_pass {
                    deep_check(p, &mut idx, &four, &options, &mut errors);
                }
            }
            rec.op(errors);
        }
        rec.end_pass();
        rec.obs_end();
        first_pass = false;
        Ok(())
    })?;

    if args.trace {
        rec.common_layers(&tracer, args)?;
        stage_pass(&datasets, &mut rec)?;
    }
    Ok(rec.to_outcome(args.trace))
}

/// Checks every pass makes: both paths against the reference and each
/// other, the measure inequalities and the top-k subset counts.
fn check(
    p: &Prepared,
    report: &SuiteReport,
    i_d: f64,
    four: &Four,
    top: &[inconsist::incremental::TupleScores],
    errors: &mut Vec<String>,
) {
    let name = &p.input.name;
    let r = &p.reference;
    let batch = Four {
        i_mi: report.mi_count.unwrap_or(f64::NAN),
        i_p: report.problematic.unwrap_or(f64::NAN),
        i_r: report.min_repair.unwrap_or(f64::NAN),
        i_r_lin: report.linear_repair.unwrap_or(f64::NAN),
    };
    expect(errors, report.drastic == Ok(r.i_d) && i_d == r.i_d, || {
        format!(
            "{name}: I_d batch {:?} index {i_d} reference {}",
            report.drastic, r.i_d
        )
    });
    batch.check(r, &format!("{name} batch"), errors);
    four.check(r, &format!("{name} index"), errors);
    expect(errors, batch.same(four), || {
        format!("{name}: batch {batch:?} and index {four:?} disagree")
    });
    let counts = r.subset_counts();
    expect(errors, top.len() == TOP_K.min(counts.len()), || {
        format!("{name}: top-{TOP_K} has {} entries", top.len())
    });
    for s in top {
        let want = counts.get(&s.tuple).copied().unwrap_or(0) as f64;
        expect(errors, s.cbm == want, || {
            format!(
                "{name}: cbm of {:?} is {}, reference {want}",
                s.tuple, s.cbm
            )
        });
    }
}

/// Checks made once per run: a minimum repair of `I_R` deletions leaves
/// the data consistent, and the `cim` scores sum to `I_MI`.
fn deep_check(
    p: &Prepared,
    idx: &mut IncrementalIndex,
    four: &Four,
    options: &MeasureOptions,
    errors: &mut Vec<String>,
) {
    let name = &p.input.name;
    match minimum_repair_deletions(idx.constraints(), idx.db(), options) {
        Ok(deletions) => {
            expect(errors, deletions.len() as f64 == four.i_r, || {
                format!(
                    "{name}: repair deletes {} tuples, I_R is {}",
                    deletions.len(),
                    four.i_r
                )
            });
            let mut repaired = idx.db().clone();
            for t in &deletions {
                repaired.delete(*t);
            }
            let after = reference::evaluate(&repaired, idx.constraints());
            expect(errors, after.i_d == 0.0, || {
                format!(
                    "{name}: {} violations remain after the minimum repair",
                    after.i_mi
                )
            });
        }
        Err(e) => errors.push(format!("{name}: minimum_repair_deletions failed: {e:?}")),
    }
    let cim: f64 = idx.tuple_measures().iter().map(|s| s.cim).sum();
    expect(errors, close(cim, four.i_mi), || {
        format!("{name}: Σcim = {cim}, I_MI = {}", four.i_mi)
    });
}

/// The batch path replayed stage by stage, to split `core.suite_us`
/// into the violation join and the conflict-graph build.
fn stage_pass(datasets: &[Prepared], rec: &mut Record) -> Result<(), String> {
    let (mut mis_us, mut sets, mut graph_us) = (0.0, 0.0, 0.0);
    for p in datasets {
        let (db, cs) = load_text(&p.input, &mut Tracer::new(false))?;
        let t = Instant::now();
        let mi = inconsist::constraints::minimal_inconsistent_subsets(&db, &cs, None);
        mis_us += us_since(t);
        sets += mi.count() as f64;
        let t = Instant::now();
        std::hint::black_box(ConflictGraph::from_subsets(&db, &mi.subsets));
        graph_us += us_since(t);
    }
    let n = datasets.chunks(DatasetId::all().len()).count() as f64;
    rec.layer("constraints.mis_us", mis_us / n);
    rec.layer("constraints.mis_sets", sets / n);
    rec.layer("graph.build_us", graph_us / n);
    Ok(())
}
