//! `serve`: the progress loop over the wire. An in-process server (one
//! event thread, one worker, durable without fsync) holds one session of
//! `lineitem` rows with injected violations, created with inline CSV.
//! One connection runs the steps through the typed client, request by
//! request: a step applies an `op` that restores one injected cell, reads
//! the four measures and the top 10 tuples, waiting for each answer. The
//! violations sit in many small components, so reads are nearly all
//! cache hits and the wire, the front end, the WAL and the per-op delta
//! do the work.

use super::{Four, FOUR_NAMES};
use crate::harness::{self, expect, us_since, value_text, Outcome, Record, RunArgs};
use crate::reference;
use crate::trace::{ObsSnapshot, Tracer};
use inconsist::incremental::ReadMode;
use inconsist::relational::{Database, RelId};
use inconsist::repair::RepairOp;
use inconsist_data::scenario::{generate_scenario, inject, DcSet, ScenarioSpec};
use inconsist_formats::{load_csv, parse_ops_file, write_csv, write_dc_file};
use inconsist_server::client::{ClientBuilder, ClientError, Measures, TypedClient};
use inconsist_server::protocol::{Payload, Request};
use inconsist_server::{serve, DurabilityConfig, FsyncPolicy, Json, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scenario scale: `ORDERS_PER_SF` × this many orders, ≈ 4 lineitems each.
pub const SCALE_FACTOR: f64 = 0.1;
/// Share of all tuples the injector makes violate a constraint.
pub const VIOLATIONS: f64 = 0.05;
/// Ops between automatic snapshots (each followed by a compaction).
pub const SNAPSHOT_EVERY: u64 = 256;
const CHECK_EVERY: usize = 32;
const TOP_K: usize = 10;
const CODEC_REPEATS: usize = 201;
const SESSION: &str = "lineitem";

struct Inputs {
    csv: String,
    dc: String,
    /// One `update` line per restore step, and the batch that re-injects.
    restore: Vec<String>,
    reinject: String,
}

fn prepare(seed: u64) -> Result<Inputs, String> {
    let spec = ScenarioSpec {
        scale_factor: SCALE_FACTOR,
        dc_set: DcSet::Core,
        seed,
    };
    let mut sc = generate_scenario(&spec);
    let injection = inject(&mut sc, VIOLATIONS, seed)?;
    let pos: HashMap<_, _> = sc
        .db
        .ids_of(sc.lineitem)
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    let rs = sc.db.schema().relation(sc.lineitem).clone();
    let line = |e: &inconsist_data::CellEdit, new: bool| {
        let v = if new { &e.new } else { &e.old };
        format!(
            "update {} {} {}",
            pos[&e.tuple],
            rs.attribute(e.attr).name,
            value_text(v)
        )
    };
    Ok(Inputs {
        csv: write_csv(&sc.db, sc.lineitem),
        dc: write_dc_file(sc.constraints.dcs(), sc.db.schema(), SESSION),
        restore: injection
            .edits
            .iter()
            .rev()
            .map(|e| line(e, false))
            .collect(),
        reinject: injection
            .edits
            .iter()
            .map(|e| line(e, true) + "\n")
            .collect(),
    })
}

fn start_server(dir: &Path) -> Result<ServerHandle, String> {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        event_threads: 1,
        durability: Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every: Some(SNAPSHOT_EVERY),
            segment_bytes: None,
        }),
        ..Default::default()
    })
    .map_err(|e| format!("starting the server: {e}"))
}

fn connect(handle: &ServerHandle) -> Result<TypedClient, String> {
    ClientBuilder::new(handle.addr())
        .connect()
        .map_err(|e| format!("connecting: {e:?}"))
}

fn call(client: &mut TypedClient, request: &Request) -> Result<Json, String> {
    client
        .call(request)
        .map_err(|e| format!("{} request failed: {e:?}", request.kind()))
}

fn measure_request() -> Request {
    Request::Measure {
        session: SESSION.to_string(),
        measures: FOUR_NAMES.iter().map(|s| s.to_string()).collect(),
        per_dc: false,
        deadline_ms: None,
    }
}

fn top_k_request() -> Request {
    Request::TupleMeasures {
        session: SESSION.to_string(),
        k: TOP_K,
        deadline_ms: None,
    }
}

fn op_request(ops: &str) -> Request {
    Request::Op {
        session: SESSION.to_string(),
        ops: ops.to_string(),
        token: None,
    }
}

/// The four measures of a `measure` response.
fn four_of(measured: &Measures) -> Four {
    let v = |name: &str| measured.value(name).unwrap_or(f64::NAN);
    Four {
        i_mi: v("I_MI"),
        i_p: v("I_P"),
        i_r: v("I_R"),
        i_r_lin: v("I_R^lin"),
    }
}

fn num(json: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(json);
    for key in path {
        cur = cur.and_then(|j| j.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Reads the four measures on the control connection.
fn read_four(client: &mut TypedClient) -> Result<Four, String> {
    let measured = client
        .session(SESSION)
        .measure(&FOUR_NAMES)
        .map_err(|e| format!("measure request failed: {e:?}"))?;
    Ok(four_of(&measured))
}

fn metrics(client: &mut TypedClient) -> Result<ObsSnapshot, String> {
    let json = call(client, &Request::Metrics { prom: false })?;
    Ok(ObsSnapshot::from_metrics_json(
        json.get("metrics").unwrap_or(&Json::Null),
    ))
}

fn appended_bytes(client: &mut TypedClient) -> Result<f64, String> {
    let stats = call(
        client,
        &Request::Stats {
            session: Some(SESSION.to_string()),
        },
    )?;
    Ok(num(&stats, &["durability", "appended_bytes"]))
}

/// Times parsing and rendering `lines` once each, on their own:
/// the median over [`CODEC_REPEATS`] repeats.
fn codec_us(lines: &[String]) -> Result<f64, String> {
    let mut times = Vec::with_capacity(CODEC_REPEATS);
    for _ in 0..CODEC_REPEATS {
        let t = Instant::now();
        for line in lines {
            std::hint::black_box(Json::parse(line)?.to_string());
        }
        times.push(us_since(t));
    }
    times.sort_by(f64::total_cmp);
    Ok(harness::quantile(&times, 0.5))
}

/// Per-layer tallies of the traced share.
#[derive(Default)]
struct Traced {
    server: ObsSnapshot,
    ops: f64,
    wal_bytes: f64,
    /// One step's request and response lines, for `wire.codec_us`.
    lines: Vec<String>,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let inputs = prepare(args.seed)?;
    eprintln!(
        "serve: {} lineitem rows, {} restore steps, create line {} bytes",
        inputs.csv.lines().count() - 1,
        inputs.restore.len(),
        inputs.csv.len() + inputs.dc.len()
    );
    let out = PathBuf::from(".bench_out");
    let dir = out.join(format!("serve-data-{}", std::process::id()));
    let result = run_in(args, &inputs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Keeps the client and the server's threads on one CPU, the last one
/// this process may use; threads started later inherit it. The loop is
/// closed, so one of them is busy at a time and they lose no parallelism.
/// What they lose is the wake-up of an idle virtual CPU on every hand-off,
/// whose latency the host varies by a factor of two from one minute to
/// the next (README.md, *Steadiness*). Returns the CPU, or `None` where
/// pinning is not available.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is this thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn run_in(args: &RunArgs, inputs: &Inputs, dir: &Path) -> Result<Outcome, String> {
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("serve: client and server pinned to CPU {cpu}"),
        None => eprintln!("serve: not pinned to one CPU"),
    }
    let mut rec = Record::default();
    let mut tracer = Tracer::new(args.trace);
    // Set-up: server start until the first read after `create` answers.
    let mut previous: Option<ServerHandle> = None;
    let (handle, mut client, start) = rec
        .set_up(|| {
            if let Some(handle) = previous.take() {
                handle.stop();
            }
            let _ = std::fs::remove_dir_all(dir);
            let t = Instant::now();
            let handle = start_server(dir)?;
            let mut client = connect(&handle)?;
            client
                .create(SESSION, &inputs.csv, &inputs.dc, ReadMode::Component)
                .map_err(|e| format!("create request failed: {e:?}"))?;
            let first = read_four(&mut client)?;
            let seconds = t.elapsed().as_secs_f64();
            previous = Some(handle);
            Ok(((client, first), seconds))
        })
        .map(|(client, first)| (previous.take().expect("a server is up"), client, first))?;

    // A local replica receives the same ops, for the reference evaluator.
    let loaded = load_csv(&inputs.csv, SESSION)?;
    let dcs = inconsist_formats::parse_dc_file(&loaded.schema, SESSION, &inputs.dc)?;
    let mut cs = inconsist::constraints::ConstraintSet::new(loaded.schema.clone());
    for dc in dcs {
        cs.add_dc(dc);
    }
    let mut replica: Database = loaded.db;
    let rs = replica.schema().relation(RelId(0)).clone();
    let parse = |text: &str| parse_ops_file(&rs, RelId(0), text);
    let restore_ops: Vec<RepairOp> = parse(&inputs.restore.join("\n"))?;
    let reinject_ops: Vec<RepairOp> = parse(&inputs.reinject)?;
    let mut errors = Vec::new();
    start.check(&reference::evaluate(&replica, &cs), "step 0", &mut errors);
    expect(&mut errors, !start.is_zero(), || {
        "the injection made no violation".into()
    });
    rec.op(errors);

    let mut steps_client = connect(&handle)?;
    let mut session = steps_client.session(SESSION);
    let client_err = |what: &str, e: ClientError| format!("{what} request failed: {e:?}");
    let mut seq = 0;
    let mut step_id = 0u64;
    let mut traced = Traced::default();
    let mut last = start;
    harness::drive(args, &mut rec, &mut tracer, |rec, tr| {
        let on = tr.enabled();
        let before = if on {
            Some(metrics(&mut client)?)
        } else {
            None
        };
        let bytes_before = if on {
            appended_bytes(&mut client)?
        } else {
            0.0
        };
        rec.begin_pass();
        rec.obs_begin(on);
        for (j, op_text) in inputs.restore.iter().enumerate() {
            tr.set_step(step_id);
            step_id += 1;
            let t = Instant::now();
            let root = tr.begin("step");
            let applied = tr
                .span("client.op", || session.apply_ops(op_text, None))
                .map_err(|e| client_err("op", e))?;
            let measured = tr
                .span("client.measure", || session.measure(&FOUR_NAMES))
                .map_err(|e| client_err("measure", e))?;
            let top = tr
                .span("client.top_k", || session.top_k(TOP_K))
                .map_err(|e| client_err("tuple_measures", e))?;
            tr.end(root);
            rec.step(us_since(t));

            restore_ops[j].apply(&mut replica);
            let four = four_of(&measured);
            let mut errors = Vec::new();
            let next = applied.last_seq;
            expect(&mut errors, seq == 0 || next == seq + 1, || {
                format!("op seq went from {seq} to {next}")
            });
            seq = next;
            let done = j + 1 == inputs.restore.len();
            if j % CHECK_EVERY == 0 || done {
                let r = reference::evaluate(&replica, &cs);
                four.check(&r, &format!("restore step {}", j + 1), &mut errors);
                expect(
                    &mut errors,
                    top.len() == TOP_K.min(r.subset_counts().len()),
                    || format!("restore step {}: top-{TOP_K} lists {}", j + 1, top.len()),
                );
            }
            if done {
                expect(&mut errors, four.is_zero(), || {
                    format!("after the last restore the measures are {four:?}, not 0")
                });
            }
            if on && traced.lines.is_empty() {
                traced.lines = vec![
                    op_request(op_text).to_json().to_string(),
                    applied.raw.to_string(),
                    measure_request().to_json().to_string(),
                    measured.raw.to_string(),
                    top_k_request().to_json().to_string(),
                ];
            }
            rec.op(errors);
            last = four;
        }
        rec.end_pass();
        rec.obs_end();
        if let Some(before) = before {
            traced.server.accumulate(&before, &metrics(&mut client)?);
            traced.ops += inputs.restore.len() as f64;
            traced.wal_bytes += appended_bytes(&mut client)? - bytes_before;
        }
        // Untimed: inject the violations again for the next pass.
        let applied = client
            .session(SESSION)
            .apply_ops(&inputs.reinject, None)
            .map_err(|e| client_err("op", e))?;
        for op in &reinject_ops {
            op.apply(&mut replica);
        }
        seq = applied.last_seq;
        let again = read_four(&mut client)?;
        let mut errors = Vec::new();
        expect(&mut errors, again.same(&start), || {
            format!("after re-injecting the measures are {again:?}, not {start:?}")
        });
        rec.op(errors);
        last = again;
        Ok(())
    })?;

    // A server restarted on the same data dir serves the same measures.
    if args.trace {
        // A `tuple_measures` response line of the final state, which has
        // the violations back in and so lists `TOP_K` tuples.
        traced
            .lines
            .push(call(&mut client, &top_k_request())?.to_string());
    }
    drop((client, steps_client));
    handle.stop();
    let handle = start_server(dir)?;
    let mut client = connect(&handle)?;
    let recovered = read_four(&mut client)?;
    let mut errors = Vec::new();
    expect(&mut errors, recovered.same(&last), || {
        format!("after a restart the measures are {recovered:?}, not {last:?}")
    });
    rec.op(errors);
    drop(client);
    handle.stop();

    if args.trace {
        rec.common_layers(&tracer, args)?;
        let steps = rec.steps();
        let s = &traced.server;
        let kinds = ["kind=\"op\"", "kind=\"measure\"", "kind=\"tuple_measures\""];
        let request_us: f64 = kinds.iter().map(|k| s.sum("server_request_us", &[k])).sum();
        let totals = tracer.totals_us();
        let client_us: f64 = ["client.op", "client.measure", "client.top_k"]
            .iter()
            .filter_map(|span| totals.get(span))
            .sum();
        rec.layer("server.request_us", request_us / steps);
        // The part of the server's time its own stage spans do not cover:
        // routing, session locking, the cached reads and rendering.
        let spans = [
            "index.delta_apply",
            "index.filter_minimal",
            "solve.dirty_component",
            "solve.lp",
        ];
        let durable = [
            "durable_append_us",
            "durable_fsync_us",
            "durable_snapshot_us",
            "durable_compact_us",
        ];
        let stages_us: f64 = spans.iter().map(|n| rec.obs.sum(n, &[])).sum::<f64>()
            + durable.iter().map(|n| s.sum(n, &[])).sum::<f64>();
        rec.layer("server.unaccounted_us", (request_us - stages_us) / steps);
        rec.layer("frontend.gap_us", (client_us - request_us) / steps);
        rec.layer("wire.codec_us", codec_us(&traced.lines)?);
        rec.layer(
            "session.cache_hit_reads",
            s.sum("session_read_rung_total", &["rung=\"cache_hit\""]) / steps,
        );
        rec.layer(
            "session.warm_reads",
            s.sum("session_read_rung_total", &["rung=\"warm\""]) / steps,
        );
        rec.layer("durable.append_us", s.sum("durable_append_us", &[]) / steps);
        rec.layer("durable.fsyncs", s.count("durable_fsync_us", &[]) / steps);
        rec.layer(
            "durable.snapshot_us",
            s.sum("durable_snapshot_us", &[]) + s.sum("durable_compact_us", &[]),
        );
        rec.layer(
            "durable.wal_bytes_per_op",
            traced.wal_bytes / traced.ops.max(1.0),
        );
        rec.layer(
            "core.apply_us",
            rec.obs.sum("index.delta_apply", &[]) / steps,
        );
        rec.layer(
            "index.filter_runs",
            s.sum("index_filter_runs_total", &[]) / steps,
        );
        rec.layer(
            "index.cover_solves",
            s.sum("index_cover_solves_total", &[]) / steps,
        );
        rec.layer(
            "index.cover_cache_hits",
            s.sum("index_cover_cache_hits_total", &[]) / steps,
        );
        // The line `create` sends, parsed alone.
        let create = Request::Create {
            session: SESSION.to_string(),
            csv: Payload::Inline(inputs.csv.clone()),
            dc: Payload::Inline(inputs.dc.clone()),
            mode: ReadMode::Component,
        };
        let line = create.to_json().to_string();
        let t = Instant::now();
        std::hint::black_box(Json::parse(&line).map_err(|e| format!("create line: {e}"))?);
        rec.layer("wire.create_parse_us", us_since(t));
        // What `create` does with the CSV once parsed, for comparison.
        let t = Instant::now();
        std::hint::black_box(load_csv(&inputs.csv, SESSION)?);
        rec.layer("formats.load_csv_us", us_since(t));
    }
    Ok(rec.to_outcome(args.trace))
}
