//! `progress`: the paper's progress-indication loop. RNoise edits on
//! Hospital are recorded, then undone one by one in reverse order; every
//! step applies one undo through the incremental index, reads the four
//! measures and the top-10 tuples. Hospital's noisy tuples share one
//! giant conflict component, so every step dirties it and component
//! caching cannot help.

use super::Four;
use crate::harness::{
    self, expect, load_text, us_since, value_text, Outcome, Record, RunArgs, TextInput,
};
use crate::reference;
use crate::trace::Tracer;
use inconsist::incremental::ReadStats;
use inconsist::measures::MeasureOptions;
use inconsist::repair::RepairOp;
use inconsist::IncrementalIndex;
use inconsist_data::{generate, CellEdit, DatasetId, RNoise};
use inconsist_formats::{load_csv, parse_ops_file, write_csv, write_dc_file};
use std::collections::HashMap;
use std::time::Instant;

/// Independent noisy instances per pass (sub-seeds of `--seed`).
pub const INSTANCES: usize = 4;
/// Hospital tuples per instance.
pub const TUPLES: usize = 1_000;
/// RNoise level: share of cells modified.
pub const NOISE: f64 = 0.01;
/// The reference evaluator checks every this many steps (and the last).
const CHECK_EVERY: usize = 16;
const TOP_K: usize = 10;

/// Noisy Hospital as text, the `.ops` scripts that undo and redo the
/// noise, and the clean data as the loaded pipeline renders it.
pub struct NoisyHospital {
    pub input: TextInput,
    pub undo: String,
    pub redo: String,
    pub clean_csv: String,
    pub edits: usize,
}

/// `update` lines for `edits`, with each cell's `old` or `new` value.
fn ops_script<'a>(
    edits: impl Iterator<Item = &'a CellEdit>,
    pos: &HashMap<inconsist::relational::TupleId, usize>,
    names: &[String],
    new: bool,
) -> String {
    let mut out = String::new();
    for e in edits {
        let v = if new { &e.new } else { &e.old };
        out.push_str(&format!(
            "update {} {} {}\n",
            pos[&e.tuple],
            names[e.attr.idx()],
            value_text(v)
        ));
    }
    out
}

pub fn prepare(seed: u64, tuples: usize, noise_level: f64) -> Result<NoisyHospital, String> {
    let mut ds = generate(DatasetId::Hospital, tuples, seed);
    let clean_text = write_csv(&ds.db, ds.rel);
    let clean_csv = write_csv(
        &load_csv(&clean_text, "Hospital")?.db,
        inconsist::relational::RelId(0),
    );
    let mut noise = RNoise::new(seed, 0.0);
    let steps = RNoise::iterations_for(noise_level, &ds.db);
    let edits: Vec<CellEdit> = (0..steps)
        .filter_map(|_| noise.step(&mut ds.db, &ds.constraints))
        .collect();
    let pos: HashMap<_, _> = ds
        .db
        .ids_of(ds.rel)
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    let names: Vec<String> = ds
        .db
        .schema()
        .relation(ds.rel)
        .attributes()
        .iter()
        .map(|a| a.name.clone())
        .collect();
    Ok(NoisyHospital {
        input: TextInput {
            name: "Hospital".to_string(),
            csv: write_csv(&ds.db, ds.rel),
            dc: write_dc_file(ds.constraints.dcs(), ds.db.schema(), "Hospital"),
        },
        undo: ops_script(edits.iter().rev(), &pos, &names, false),
        redo: ops_script(edits.iter(), &pos, &names, true),
        clean_csv,
        edits: edits.len(),
    })
}

fn parse_ops(idx: &IncrementalIndex, text: &str) -> Result<Vec<RepairOp>, String> {
    let rel = inconsist::relational::RelId(0);
    parse_ops_file(idx.db().schema().relation(rel), rel, text)
}

/// One noisy instance with its live index.
struct Live {
    input: NoisyHospital,
    idx: IncrementalIndex,
    start: Four,
    undo: Vec<RepairOp>,
    redo: Vec<RepairOp>,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let inputs: Vec<NoisyHospital> = (0..INSTANCES)
        .map(|i| {
            prepare(
                args.seed
                    .wrapping_mul(INSTANCES as u64)
                    .wrapping_add(i as u64),
                TUPLES,
                NOISE,
            )
        })
        .collect::<Result<_, _>>()?;
    eprintln!(
        "progress: {INSTANCES} x {TUPLES} Hospital tuples, undo steps {:?}",
        inputs.iter().map(|i| i.edits).collect::<Vec<_>>()
    );
    let options = MeasureOptions::default();
    let mut rec = Record::default();
    let mut tracer = Tracer::new(args.trace);

    // Set-up: CSV text until the step-0 read is answered, every instance.
    let built = rec.set_up(|| {
        let t = Instant::now();
        let mut built = Vec::new();
        for input in &inputs {
            let (db, cs) = load_text(&input.input, &mut Tracer::new(false))?;
            let mut idx =
                IncrementalIndex::build(db, cs).map_err(|e| format!("index build: {e:?}"))?;
            let four = Four::read(&mut idx, &options);
            std::hint::black_box(idx.top_k_tuples(TOP_K));
            built.push((idx, four));
        }
        Ok((built, t.elapsed().as_secs_f64()))
    })?;
    let mut live = Vec::new();
    for (input, (idx, start)) in inputs.into_iter().zip(built) {
        let mut errors = Vec::new();
        start.check(
            &reference::evaluate(idx.db(), idx.constraints()),
            "step 0",
            &mut errors,
        );
        expect(&mut errors, !start.is_zero(), || {
            "the noise made no violation".into()
        });
        rec.op(errors);
        let undo = parse_ops(&idx, &input.undo)?;
        let redo = parse_ops(&idx, &input.redo)?;
        live.push(Live {
            input,
            idx,
            start,
            undo,
            redo,
        });
    }

    let mut step_id = 0u64;
    let mut stats = ReadStats::default();
    harness::drive(args, &mut rec, &mut tracer, |rec, tr| {
        rec.begin_pass();
        for l in live.iter_mut() {
            undo_all(l, rec, tr, &options, &mut step_id);
            if tr.enabled() {
                let s = l.idx.stats();
                stats.filter_runs += s.filter_runs;
                stats.cover_solves += s.cover_solves;
                stats.cover_cache_hits += s.cover_cache_hits;
            }
            // Untimed: put the noise back for the next pass.
            for op in &l.redo {
                l.idx.apply(op);
            }
            let again = Four::read(&mut l.idx, &options);
            let mut errors = Vec::new();
            expect(&mut errors, again.same(&l.start), || {
                format!(
                    "after redoing the noise the measures are {again:?}, not {:?}",
                    l.start
                )
            });
            rec.op(errors);
        }
        rec.end_pass();
        Ok(())
    })?;

    if args.trace {
        rec.common_layers(&tracer, args)?;
        let steps = rec.steps();
        rec.layer("index.filter_runs", stats.filter_runs as f64 / steps);
        rec.layer("index.cover_solves", stats.cover_solves as f64 / steps);
        rec.layer(
            "index.cover_cache_hits",
            stats.cover_cache_hits as f64 / steps,
        );
    }
    Ok(rec.to_outcome(args.trace))
}

/// The timed undo loop of one instance, with its checks.
fn undo_all(
    l: &mut Live,
    rec: &mut Record,
    tr: &mut Tracer,
    options: &MeasureOptions,
    step_id: &mut u64,
) {
    let idx = &mut l.idx;
    idx.reset_stats();
    rec.obs_begin(tr.enabled());
    for (j, op) in l.undo.iter().enumerate() {
        tr.set_step(*step_id);
        *step_id += 1;
        let t = Instant::now();
        let root = tr.begin("step");
        tr.span("core.apply", || idx.apply(op));
        let four = tr.span("core.measure_reads", || Four::read(idx, options));
        let top = tr.span("core.tuple_scores", || idx.top_k_tuples(TOP_K));
        tr.end(root);
        rec.step(us_since(t));

        let mut errors = Vec::new();
        let last = j + 1 == l.undo.len();
        if j % CHECK_EVERY == 0 || last {
            let r = reference::evaluate(idx.db(), idx.constraints());
            four.check(&r, &format!("undo step {}", j + 1), &mut errors);
            expect(
                &mut errors,
                top.len() == TOP_K.min(r.subset_counts().len()),
                || format!("undo step {}: top-{TOP_K} has {} entries", j + 1, top.len()),
            );
        }
        if last {
            expect(&mut errors, four.is_zero(), || {
                format!("after the last undo the measures are {four:?}, not 0")
            });
            let rel = inconsist::relational::RelId(0);
            expect(
                &mut errors,
                write_csv(idx.db(), rel) == l.input.clean_csv,
                || "after the last undo the data is not the clean data".into(),
            );
        }
        rec.op(errors);
    }
    rec.obs_end();
}
