//! One benchmark for the paper's use cases (§1): auditing a new dataset,
//! indicating progress while cleaning, serving that progress loop over
//! the wire, and the Fig. 7 cleaning pipeline.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload audit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones. `--digest` instead recomputes the SoftClean output
//! digest (see README.md).

mod alloc;
mod harness;
mod reference;
mod trace;
mod workloads;

use harness::{Outcome, RunArgs};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: usecase-bench --workload <audit|progress|serve|clean> \
--seed <n> --seconds <n> --trace <0|1>\n       usecase-bench --digest";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--digest" {
        return workloads::clean::digest_command();
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = reference::self_test() {
        eprintln!("error: reference evaluator self-test failed: {e}");
        return ExitCode::from(1);
    }
    let outcome: Result<Outcome, String> = match run.workload.as_str() {
        "audit" => workloads::audit::run(&run),
        "progress" => workloads::progress::run(&run),
        "serve" => workloads::serve::run(&run),
        "clean" => workloads::clean::run(&run),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
