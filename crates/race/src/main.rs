//! `cm-race` — schedule exploration CLI.
//!
//! Modes:
//!
//! * default: exhaustive DFS over every clean-expected scenario (or one,
//!   with `--scenario`) — the CI gate;
//! * `--walk`: seeded random-walk sampling for depths the DFS can't
//!   exhaust;
//! * `--replay <id>`: deterministically re-run one schedule id, e.g. one
//!   pasted from a finding;
//! * `--list-scenarios`: show the registry.
//!
//! Exit codes: `0` success, `1` findings or an exhaustive run that a cap
//! stopped short of exhaustion (inverted by `--expect-finding`, which
//! demands at least one finding — the seeded mutation gate — and does not
//! require exhaustion), `2` usage or stale-id errors.

use cm_race::explore::{
    explore_exhaustive, random_walks, replay, require_exhausted, Caps, ExploreReport,
};
use cm_race::json_str;
use cm_race::scenario::{self, Scenario};
use cm_race::schedule::{Mutation, ScheduleId};
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    json: bool,
    workers: usize,
    scenario: Option<String>,
    mutate: Mutation,
    expect_finding: bool,
    walk: bool,
    seed: u64,
    schedules: usize,
    replay: Option<String>,
    list: bool,
    caps: Caps,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            json: false,
            workers: 2,
            scenario: None,
            mutate: Mutation::None,
            expect_finding: false,
            walk: false,
            seed: 20140817, // CloudMirror's publication date, for a stable default
            schedules: 64,
            replay: None,
            list: false,
            caps: Caps::default(),
        }
    }
}

const USAGE: &str = "\
cm-race: deterministic schedule exploration for the concurrent engine

USAGE:
  cm-race [OPTIONS]                 exhaustive DFS (all clean-expected scenarios)
  cm-race --walk [OPTIONS]          seeded random-walk sampling
  cm-race --replay <SCHEDULE-ID>    re-run one recorded schedule
  cm-race --list-scenarios          show the scenario registry

OPTIONS:
  --scenario <NAME>     explore one scenario instead of the registry
  --workers <N>         engine worker threads (default 2)
  --mutate <CODE>       engine mutation: ok | nopc | finv (default ok)
  --expect-finding      invert the gate: succeed iff findings were produced
  --seed <N>            random-walk seed (default 20140817)
  --schedules <N>       random-walk schedule count (default 64)
  --max-runs <N>        DFS run cap (default 200000)
  --max-findings <N>    stop after this many findings (default 10)
  --json                machine-readable report on stdout
  -h, --help            this text
";

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "--json" => o.json = true,
            "--expect-finding" => o.expect_finding = true,
            "--walk" => o.walk = true,
            "--list-scenarios" => o.list = true,
            "--scenario" => o.scenario = Some(take("--scenario")?),
            "--replay" => o.replay = Some(take("--replay")?),
            "--workers" => {
                o.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
                if o.workers == 0 || o.workers > 8 {
                    return Err("--workers must be in 1..=8".to_string());
                }
            }
            "--mutate" => {
                let code = take("--mutate")?;
                o.mutate = Mutation::from_code(&code)
                    .ok_or_else(|| format!("unknown mutation {code:?} (ok | nopc | finv)"))?;
            }
            "--seed" => {
                o.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--schedules" => {
                o.schedules = take("--schedules")?
                    .parse()
                    .map_err(|_| "--schedules expects a positive integer".to_string())?;
            }
            "--max-runs" => {
                o.caps.max_runs = take("--max-runs")?
                    .parse()
                    .map_err(|_| "--max-runs expects a positive integer".to_string())?;
            }
            "--max-findings" => {
                o.caps.max_findings = take("--max-findings")?
                    .parse()
                    .map_err(|_| "--max-findings expects a positive integer".to_string())?;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn report_json(r: &ExploreReport) -> String {
    let findings: Vec<String> = r.findings.iter().map(finding_json).collect();
    format!(
        "{{\"scenario\":{},\"workers\":{},\"mutation\":{},\"schedules\":{},\"pruned\":{},\
         \"max_depth\":{},\"complete\":{},\"findings\":[{}]}}",
        json_str(&r.scenario),
        r.workers,
        json_str(r.mutation.code()),
        r.schedules,
        r.pruned,
        r.max_depth,
        r.complete,
        findings.join(",")
    )
}

fn finding_json(f: &cm_analyze::Finding) -> String {
    format!(
        "{{\"rule\":{},\"schedule\":{},\"step\":{},\"message\":{}}}",
        json_str(f.rule),
        json_str(&f.path),
        f.line,
        json_str(&f.message)
    )
}

fn print_report(r: &ExploreReport, json: bool) {
    if json {
        return; // aggregated by the caller
    }
    let mode = if r.complete { "exhausted" } else { "sampled" };
    eprintln!(
        "cm-race: {} w{} {}: {} schedules ({} pruned), depth ≤ {}, {} — {} finding(s)",
        r.scenario,
        r.workers,
        r.mutation.code(),
        r.schedules,
        r.pruned,
        r.max_depth,
        mode,
        r.findings.len()
    );
    for f in &r.findings {
        eprint!("{}", cm_analyze::diag::render_text(f));
    }
}

fn run_replay(id_str: &str, opts: &Opts) -> ExitCode {
    let Some(id) = ScheduleId::parse(id_str) else {
        eprintln!("cm-race: malformed schedule id {id_str:?}");
        return ExitCode::from(2);
    };
    let Some(scn) = scenario::find(&id.scenario) else {
        eprintln!("cm-race: unknown scenario {:?} in schedule id", id.scenario);
        return ExitCode::from(2);
    };
    let out = replay(&scn, &id);
    if out.pruned || out.id != id {
        eprintln!(
            "cm-race: schedule id is stale (the yield-point structure changed since it \
             was recorded); re-explore to mint a fresh id"
        );
        return ExitCode::from(2);
    }
    if opts.json {
        let findings: Vec<String> = out.findings.iter().map(finding_json).collect();
        println!(
            "{{\"version\":1,\"mode\":\"replay\",\"schedule\":{},\"steps\":{},\"findings\":[{}]}}",
            json_str(&out.id.to_string()),
            out.trace.events.len(),
            findings.join(",")
        );
    } else {
        eprintln!(
            "cm-race: replayed {} ({} steps) — {} finding(s)",
            out.id,
            out.trace.events.len(),
            out.findings.len()
        );
        for f in &out.findings {
            eprint!("{}", cm_analyze::diag::render_text(f));
        }
    }
    gate(!out.findings.is_empty(), opts.expect_finding)
}

/// Map "did we find anything" through the (possibly inverted) gate.
fn gate(found: bool, expect_finding: bool) -> ExitCode {
    if found == expect_finding {
        ExitCode::SUCCESS
    } else if expect_finding {
        eprintln!("cm-race: expected at least one finding, none produced");
        ExitCode::FAILURE
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cm-race: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for s in scenario::all() {
            println!(
                "{:10} {}{}",
                s.name,
                s.about,
                if s.expect_clean {
                    ""
                } else {
                    "  [expects findings]"
                }
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &opts.replay {
        return run_replay(id, &opts);
    }

    let scns: Vec<Scenario> = match &opts.scenario {
        Some(name) => match scenario::find(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("cm-race: unknown scenario {name:?} (see --list-scenarios)");
                return ExitCode::from(2);
            }
        },
        None => scenario::all()
            .into_iter()
            .filter(|s| s.expect_clean)
            .collect(),
    };

    let start = Instant::now();
    let mut reports = Vec::new();
    for scn in &scns {
        let r = if opts.walk {
            random_walks(
                scn,
                opts.workers,
                opts.mutate,
                opts.seed,
                opts.schedules,
                &opts.caps,
            )
        } else {
            explore_exhaustive(scn, opts.workers, opts.mutate, &opts.caps)
        };
        print_report(&r, opts.json);
        reports.push(r);
    }
    let elapsed = start.elapsed().as_millis();
    let found = reports.iter().any(|r| !r.findings.is_empty());
    let all_complete = reports.iter().all(|r| r.complete);
    if opts.json {
        let body: Vec<String> = reports.iter().map(report_json).collect();
        println!(
            "{{\"version\":1,\"mode\":{},\"workers\":{},\"mutation\":{},\"elapsed_ms\":{},\
             \"complete\":{},\"reports\":[{}]}}",
            json_str(if opts.walk { "walk" } else { "exhaustive" }),
            opts.workers,
            json_str(opts.mutate.code()),
            elapsed,
            all_complete,
            body.join(",")
        );
    } else {
        eprintln!(
            "cm-race: {} scenario(s), {} schedule(s) total in {elapsed} ms",
            reports.len(),
            reports.iter().map(|r| r.schedules).sum::<usize>()
        );
    }
    if !opts.walk && !opts.expect_finding {
        if let Err(e) = require_exhausted(&reports) {
            eprintln!("cm-race: {e}");
            return ExitCode::FAILURE;
        }
    }
    gate(found, opts.expect_finding)
}
