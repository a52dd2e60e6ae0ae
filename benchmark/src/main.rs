//! `cm-benchmark`: one end-to-end, layer-attributed benchmark of the
//! CloudMirror spine. See README.md for the metric glossary and workloads.
//!
//! ```text
//! cm-benchmark [--seed N] [--reps R] [--out FILE]     every workload, timed then traced
//! cm-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                     one workload for S seconds; last line is JSON
//! cm-benchmark compare BASE.json NEW.json             apply the bounds to two result files
//! cm-benchmark manifest                               print BENCHMARK.json
//! ```

mod calib;
mod compare;
mod json;
mod metrics;
mod replay;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::Limit;
use std::process::ExitCode;
use std::time::Instant;
use suite::{reduce, spawn_rep, WorkloadResult};
use workload::{Workload, WORKLOADS};

/// Reps per driver run (`--workload`): each measures a third of `--seconds`.
const DRIVER_REPS: u32 = 3;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    arrivals: Option<usize>,
    trace: Option<bool>,
    reps: Option<u32>,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        let bad = |name: &str, v: &str| format!("{name}: cannot read `{v}`");
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--out" => args.out = Some(value("--out")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| bad("--seed", &v))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| bad("--seconds", &v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("--seconds", &v));
                }
                args.seconds = Some(s);
            }
            "--arrivals" => {
                let v = value("--arrivals")?;
                args.arrivals = Some(v.parse().map_err(|_| bad("--arrivals", &v))?);
            }
            "--reps" => {
                let v = value("--reps")?;
                let n: u32 = v.parse().map_err(|_| bad("--reps", &v))?;
                if !(1..=100).contains(&n) {
                    return Err(bad("--reps", &v));
                }
                args.reps = Some(n);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", v)),
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn workload_named(name: Option<&str>) -> Result<&'static Workload, String> {
    let name = name.ok_or("--workload is required")?;
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

/// `child`: one rep in this process; prints its numbers as one JSON line.
fn child(args: &Args, started: Instant) -> Result<bool, String> {
    let w = workload_named(args.workload.as_deref())?;
    let limit = match (args.arrivals, args.seconds) {
        (Some(n), None) => Limit::Arrivals(n),
        (None, Some(s)) => Limit::Seconds(s),
        _ => return Err("child needs exactly one of --arrivals and --seconds".into()),
    };
    let traced = args.trace.unwrap_or(false);
    let seed = args.seed.unwrap_or(1);
    let rep = run::run_rep(w, seed, limit, traced, started)?;
    if let Some(trace) = &rep.trace {
        let path = suite::out_dir().join(format!("trace-{}.jsonl", w.name));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", suite::encode_rep(&rep, seed, traced));
    Ok(true)
}

/// `--workload W --seconds S --trace T`: the form the PR driver runs. The
/// last line printed is the result object it reads.
fn driver(args: &Args) -> Result<bool, String> {
    let w = workload_named(args.workload.as_deref())?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS));
    let traced = args.trace.unwrap_or(false);
    let mut reps = Vec::new();
    if traced {
        // An untraced rep beside the traced one gives the tracing overhead
        // and cross-checks that tracing changes no decision.
        reps.push(spawn_rep(w, seed, Limit::Seconds(seconds / 2.0), false)?);
        reps.push(spawn_rep(w, seed, Limit::Seconds(seconds / 2.0), true)?);
    } else {
        // Each rep measures its own stream drawn from `seed`: three
        // streams tell more about the code than one stream three times.
        // Their ops are pooled into one measurement below.
        let each = Limit::Seconds(seconds / f64::from(DRIVER_REPS));
        for i in 0..DRIVER_REPS {
            let stream = seed
                .wrapping_mul(u64::from(DRIVER_REPS))
                .wrapping_add(u64::from(i));
            reps.push(spawn_rep(w, stream, each, false)?);
        }
    }
    let mut result = reduce(w.name, reps);
    if !traced {
        let untraced: Vec<&suite::Rep> = result.reps.iter().collect();
        result.medians = suite::pooled(&untraced);
    }
    suite::print_table(std::slice::from_ref(&result));

    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics = if traced {
        Json::obj(
            PER_LAYER
                .iter()
                .zip(&result.layers)
                .map(|(m, v)| (m.name, metric(*v, m.unit))),
        )
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .zip(&result.medians)
                .map(|(m, v)| (m.name, metric(*v, m.unit))),
        )
    };
    let total = |f: fn(&suite::Rep) -> u64| result.reps.iter().map(f).sum::<u64>() as f64;
    let line = Json::obj([
        ("correct", Json::Bool(result.ok())),
        ("attempted", Json::Num(total(|r| r.ops))),
        // Refusals for capacity are outcomes the workloads intend (and
        // `ok_ops_share` bounds them); only other errors are failures.
        ("failed", Json::Num(total(|r| r.errors))),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode());
    Ok(result.ok())
}

/// No `--workload`: every workload, `--reps` untraced reps interleaved
/// across workloads, then one traced rep each; each rep runs its workload's
/// fixed arrival count, so a seed's decisions repeat exactly.
fn full(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(1);
    let reps = args.reps.unwrap_or(3);
    let mut by_workload: Vec<Vec<suite::Rep>> = vec![Vec::new(); WORKLOADS.len()];
    for pass in 0..=reps {
        let traced = pass == reps;
        for (w, into) in WORKLOADS.iter().zip(&mut by_workload) {
            if traced {
                eprintln!("{}: traced rep", w.name);
            } else {
                eprintln!("{}: rep {} of {reps}", w.name, pass + 1);
            }
            into.push(spawn_rep(w, seed, Limit::Arrivals(w.arrivals), traced)?);
        }
    }
    let results: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .zip(by_workload)
        .map(|(w, reps)| reduce(w.name, reps))
        .collect();
    suite::print_table(&results);
    let valid = results.iter().all(WorkloadResult::ok);

    let out = args.out.clone().map_or_else(
        || suite::out_dir().join(format!("result-{seed}.json")),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, suite::result_json(seed, &results).encode_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "\n{}: results in {}, traces in {}",
        if valid {
            "all checks passed"
        } else {
            "CHECKS FAILED: THE TABLE ABOVE IS INVALID"
        },
        out.display(),
        suite::out_dir().display()
    );
    Ok(valid)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err("usage: compare BASE.json NEW.json".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (rows, agree) = compare::compare(&read(base)?, &read(new)?)?;
    for row in rows {
        println!("{row}");
    }
    println!(
        "{}",
        if agree {
            "the two sets agree within the benchmark's bounds"
        } else {
            "the two sets DISAGREE (regressed, unresolved or differing rows above)"
        }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("child") => child(&args, started),
            Some("compare") => compare_files(&args.positional[1..]),
            Some("manifest") => {
                print!("{}", metrics::manifest().encode_pretty());
                Ok(true)
            }
            Some(other) => Err(format!("unknown command `{other}`")),
            None if args.workload.is_some() => driver(&args),
            None => full(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
