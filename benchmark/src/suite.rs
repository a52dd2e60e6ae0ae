//! The parent side: runs every rep in a child process of its own (so peak
//! memory and set-up are per rep, and nothing one rep warmed helps the
//! next), takes medians over reps, cross-checks the reps' decisions, and
//! prints the metric table.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Check, Limit, RepResult};
use crate::stats;
use crate::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where result and trace files go: the benchmark's own `target/`, which
/// its `.gitignore` covers, so no run can overwrite a tracked file.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/target/benchmark")
    } else {
        PathBuf::from("target/benchmark")
    }
}

/// One rep as its child process reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// The seed of the measured op stream.
    pub seed: u64,
    pub traced: bool,
    pub arrivals: u64,
    pub ops: u64,
    pub rejected: u64,
    pub errors: u64,
    pub fingerprint: String,
    pub marks: Vec<(u64, String)>,
    /// Measured phase at reference machine speed, seconds.
    pub wall_s: f64,
    /// Wall time over `wall_s`: how much slower than the reference the
    /// machine ran during the measured phase.
    pub slowdown: f64,
    /// Op latencies at reference speed, µs, ascending (at most 65,536).
    pub lat_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    /// End-to-end metrics, in `END_TO_END` order.
    pub end_to_end: Vec<f64>,
    pub checks: Vec<Check>,
    /// Per-layer metrics by name; empty unless traced.
    pub layers: Vec<(String, f64)>,
}

/// What the end-to-end metrics are computed from: one rep, or several
/// reps pooled.
struct Measured<'a> {
    ops: u64,
    /// Ops that were refused or failed.
    not_ok: u64,
    wall_s: f64,
    /// Ascending.
    lat_us: &'a [f64],
    peak_rss_mb: f64,
    setup_s: f64,
}

/// The end-to-end metrics, in `END_TO_END` order.
fn end_to_end(m: &Measured) -> Vec<f64> {
    let pct = |p| stats::percentile_sorted(m.lat_us, p).unwrap_or(0.0);
    let value = |name: &str| match name {
        "ops_per_s" => m.ops as f64 / m.wall_s,
        "op_p25_us" => pct(25.0),
        "op_p95_us" => pct(95.0),
        "ok_ops_share" => (m.ops - m.not_ok) as f64 / m.ops.max(1) as f64,
        "peak_rss_mb" => m.peak_rss_mb,
        "setup_s" => m.setup_s,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    END_TO_END.iter().map(|m| value(m.name)).collect()
}

/// Several reps as one measurement: their ops and latencies pooled, so
/// that three streams count as one stream three times as long; memory and
/// set-up, which every rep measures whole, as the median over reps.
pub fn pooled(reps: &[&Rep]) -> Vec<f64> {
    let mut lat_us: Vec<f64> = reps.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
    stats::sort(&mut lat_us);
    let column = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<f64>>();
    end_to_end(&Measured {
        ops: reps.iter().map(|r| r.ops).sum(),
        not_ok: reps.iter().map(|r| r.rejected + r.errors).sum(),
        wall_s: reps.iter().map(|r| r.wall_s).sum(),
        lat_us: &lat_us,
        peak_rss_mb: stats::median(&column(|r| r.peak_rss_mb)).unwrap_or(0.0),
        setup_s: stats::median(&column(|r| r.setup_s)).unwrap_or(0.0),
    })
}

/// What a child prints: one rep's numbers as one line of JSON.
pub fn encode_rep(r: &RepResult, seed: u64, traced: bool) -> String {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let hex = |v: u64| Json::Str(format!("{v:016x}"));
    Json::obj([
        // As text: a u64 does not fit a JSON number.
        ("seed", Json::Str(seed.to_string())),
        ("traced", Json::Bool(traced)),
        ("arrivals", Json::Num(r.arrivals as f64)),
        ("ops", Json::Num(r.ops as f64)),
        ("rejected", Json::Num(r.rejected as f64)),
        ("errors", Json::Num(r.errors as f64)),
        ("fingerprint", hex(r.fingerprint)),
        (
            "marks",
            Json::Arr(
                r.marks
                    .iter()
                    .map(|&(n, fp)| Json::Arr(vec![Json::Num(n as f64), hex(fp)]))
                    .collect(),
            ),
        ),
        ("wall_s", Json::Num(r.wall_s)),
        ("slowdown", Json::Num(r.slowdown)),
        ("lat_us", nums(&r.lat_us)),
        ("peak_rss_mb", Json::Num(r.peak_rss_mb)),
        ("setup_s", Json::Num(r.setup_s)),
        ("checks", encode_checks(&r.checks)),
        (
            "layers",
            Json::obj(r.layers.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
    ])
    .encode()
}

fn encode_checks(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name.as_str())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::str(c.detail.as_str())),
                ])
            })
            .collect(),
    )
}

fn decode_rep(line: &str) -> Result<Rep, String> {
    let j = Json::parse(line)?;
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child result lacks `{key}`"))
    };
    let arr = |key: &str| {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("child result lacks `{key}`"))
    };
    let floats = |key: &str| -> Result<Vec<f64>, String> {
        Ok(arr(key)?.iter().filter_map(Json::as_f64).collect())
    };
    let (ops, rejected, errors) = (
        num("ops")? as u64,
        num("rejected")? as u64,
        num("errors")? as u64,
    );
    let (wall_s, lat_us) = (num("wall_s")?, floats("lat_us")?);
    let (peak_rss_mb, setup_s) = (num("peak_rss_mb")?, num("setup_s")?);
    Ok(Rep {
        end_to_end: end_to_end(&Measured {
            ops,
            not_ok: rejected + errors,
            wall_s,
            lat_us: &lat_us,
            peak_rss_mb,
            setup_s,
        }),
        wall_s,
        slowdown: num("slowdown")?,
        lat_us,
        peak_rss_mb,
        setup_s,
        seed: j
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or("child result lacks `seed`")?,
        traced: j.get("traced").and_then(Json::as_bool).unwrap_or(false),
        arrivals: num("arrivals")? as u64,
        ops,
        rejected,
        errors,
        fingerprint: j
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("child result lacks `fingerprint`")?
            .to_string(),
        marks: arr("marks")?
            .iter()
            .filter_map(|m| {
                let m = m.as_arr()?;
                Some((m.first()?.as_f64()? as u64, m.get(1)?.as_str()?.to_string()))
            })
            .collect(),
        checks: arr("checks")?
            .iter()
            .filter_map(|c| {
                Some(Check {
                    name: c.get("name")?.as_str()?.to_string(),
                    ok: c.get("ok")?.as_bool()?,
                    detail: c.get("detail")?.as_str()?.to_string(),
                })
            })
            .collect(),
        layers: j
            .get("layers")
            .and_then(Json::as_obj)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Run one rep in a child process of this executable and wait for it.
pub fn spawn_rep(w: &Workload, seed: u64, limit: Limit, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()]);
    match limit {
        Limit::Arrivals(n) => cmd.args(["--arrivals", &n.to_string()]),
        Limit::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    // `output` waits for the child to end and collects what it printed.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a rep of {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("a rep of {} exited with {}", w.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("a rep of {} printed nothing", w.name))?;
    decode_rep(line)
}

/// All reps of one workload, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub reps: Vec<Rep>,
    /// Median over untraced reps per end-to-end metric, `END_TO_END` order.
    pub medians: Vec<f64>,
    /// `(max − min) / median` over untraced reps, same order.
    pub spreads: Vec<f64>,
    /// The traced rep's per-layer metrics, `PER_LAYER` order; empty when
    /// no rep was traced.
    pub layers: Vec<f64>,
    pub checks: Vec<Check>,
}

impl WorkloadResult {
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Reduce the reps of one workload and cross-check their decisions: reps
/// of one seed walk the same op stream, so wherever two of them reached the
/// same arrival count their fingerprints must be equal.
pub fn reduce(name: &'static str, reps: Vec<Rep>) -> WorkloadResult {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let column = |i: usize| -> Vec<f64> { untraced.iter().map(|r| r.end_to_end[i]).collect() };
    let medians = (0..END_TO_END.len())
        .map(|i| stats::median(&column(i)).unwrap_or(0.0))
        .collect();
    let spreads = (0..END_TO_END.len())
        .map(|i| stats::spread(&column(i)))
        .collect();

    let mut checks: Vec<Check> = reps.iter().flat_map(|r| r.checks.clone()).collect();
    let mut differing = Vec::new();
    if let Some((first, rest)) = reps.split_first() {
        for (i, other) in rest.iter().enumerate() {
            if other.seed != first.seed {
                continue;
            }
            let same_length = first.arrivals == other.arrivals;
            let marks_differ = first
                .marks
                .iter()
                .any(|(n, fp)| other.marks.iter().any(|(m, g)| m == n && g != fp));
            let ends_differ = same_length
                && (first.fingerprint != other.fingerprint
                    || first.ops != other.ops
                    || first.rejected != other.rejected);
            if marks_differ || ends_differ {
                differing.push(format!("rep 0 vs rep {}", i + 1));
            }
        }
    }
    checks.push(Check {
        name: "reps_decide_identically".to_string(),
        ok: differing.is_empty(),
        detail: differing.join(", "),
    });

    let mut layers = Vec::new();
    if let Some(traced) = reps.iter().find(|r| r.traced) {
        let rate = END_TO_END
            .iter()
            .position(|m| m.name == "ops_per_s")
            .expect("ops_per_s is an end-to-end metric");
        let plain = untraced.first().map(|r| r.end_to_end[rate]);
        layers = PER_LAYER
            .iter()
            .map(|m| {
                if m.name == "trace.overhead_pct" {
                    // How much slower the traced rep ran than an untraced one.
                    plain.map_or(0.0, |p| (p - traced.end_to_end[rate]) / p * 100.0)
                } else {
                    traced
                        .layers
                        .iter()
                        .find(|(k, _)| k == m.name)
                        .map_or(0.0, |(_, v)| *v)
                }
            })
            .collect();
    }
    WorkloadResult {
        name,
        reps,
        medians,
        spreads,
        layers,
        checks,
    }
}

/// The human-readable table: every metric by name with its unit.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        let untraced = r.reps.iter().filter(|rep| !rep.traced).count();
        let Some(first) = r.reps.first() else {
            continue;
        };
        println!(
            "\n{}{}  {} untraced rep(s); rep 0: {} arrivals, {} ops, {} refused, {} errors, fingerprint {}",
            r.name,
            if r.ok() { "" } else { "  ** INVALID **" },
            untraced,
            first.arrivals,
            first.ops,
            first.rejected,
            first.errors,
            first.fingerprint,
        );
        let slowdowns: Vec<String> = r
            .reps
            .iter()
            .map(|rep| format!("{:.2}", rep.slowdown))
            .collect();
        println!(
            "  times are at reference machine speed; the machine ran slower by x{} in the reps",
            slowdowns.join(" x")
        );
        if untraced > 0 {
            for (i, m) in END_TO_END.iter().enumerate() {
                println!(
                    "  {:<36} {:>14.4} {:<6} spread {:>5.1}%  (bound {:.0}%, {} is better)",
                    m.name,
                    r.medians[i],
                    m.unit,
                    r.spreads[i] * 100.0,
                    m.bound * 100.0,
                    m.better.as_str(),
                );
            }
        }
        for (m, v) in PER_LAYER.iter().zip(&r.layers) {
            println!("  {:<36} {:>14.4} {}", m.name, v, m.unit);
        }
        for c in r.checks.iter().filter(|c| !c.ok) {
            println!("  CHECK FAILED {}: {}", c.name, c.detail);
        }
    }
}

/// The result file `compare` reads.
pub fn result_json(seed: u64, results: &[WorkloadResult]) -> Json {
    let valid = results.iter().all(WorkloadResult::ok);
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("valid", Json::Bool(valid)),
        (
            "workloads",
            Json::obj(results.iter().map(|r| {
                let first = r.reps.first();
                let count = |f: fn(&Rep) -> u64| Json::Num(first.map_or(0, f) as f64);
                (
                    r.name,
                    Json::obj([
                        ("valid", Json::Bool(r.ok())),
                        ("arrivals", count(|rep| rep.arrivals)),
                        ("ops", count(|rep| rep.ops)),
                        ("refused", count(|rep| rep.rejected)),
                        ("errors", count(|rep| rep.errors)),
                        (
                            "fingerprint",
                            Json::str(first.map_or("", |rep| rep.fingerprint.as_str())),
                        ),
                        (
                            "end_to_end",
                            Json::obj(END_TO_END.iter().enumerate().map(|(i, m)| {
                                (
                                    m.name,
                                    Json::obj([
                                        ("value", Json::Num(r.medians[i])),
                                        ("unit", Json::str(m.unit)),
                                        ("spread", Json::Num(r.spreads[i])),
                                        (
                                            "reps",
                                            Json::Arr(
                                                r.reps
                                                    .iter()
                                                    .filter(|rep| !rep.traced)
                                                    .map(|rep| Json::Num(rep.end_to_end[i]))
                                                    .collect(),
                                            ),
                                        ),
                                    ]),
                                )
                            })),
                        ),
                        (
                            "per_layer",
                            Json::obj(PER_LAYER.iter().zip(&r.layers).map(|(m, v)| {
                                (
                                    m.name,
                                    Json::obj([
                                        ("value", Json::Num(*v)),
                                        ("unit", Json::str(m.unit)),
                                    ]),
                                )
                            })),
                        ),
                        ("checks", encode_checks(&r.checks)),
                    ]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(traced: bool, ops_per_s: f64, fingerprint: &str) -> Rep {
        Rep {
            seed: 1,
            traced,
            arrivals: 100,
            ops: 500,
            rejected: 20,
            errors: 0,
            fingerprint: fingerprint.to_string(),
            marks: vec![(50, "aa".into()), (100, fingerprint.to_string())],
            wall_s: 500.0 / ops_per_s,
            slowdown: 1.0,
            lat_us: vec![10.0; 19].into_iter().chain([20.0]).collect(),
            peak_rss_mb: 30.0,
            setup_s: 0.5,
            end_to_end: vec![ops_per_s, 10.0, 20.0, 0.96, 30.0, 0.5],
            checks: Vec::new(),
            layers: if traced {
                vec![("share.solve".to_string(), 0.7)]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn reduces_to_the_median_of_untraced_reps() {
        let r = reduce(
            "w",
            vec![
                rep(false, 1000.0, "f0"),
                rep(false, 1100.0, "f0"),
                rep(false, 900.0, "f0"),
                rep(true, 950.0, "f0"),
            ],
        );
        assert!(r.ok());
        assert_eq!(r.medians[0], 1000.0, "the traced rep is not in the median");
        assert_eq!(r.spreads[0], 0.2);
        let at = |name: &str| r.layers[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        assert_eq!(at("share.solve"), 0.7);
        assert_eq!(at("trace.overhead_pct"), 5.0, "vs the first untraced rep");
        assert_eq!(at("share.score"), 0.0, "unreported layers read 0");
    }

    #[test]
    fn pooling_counts_the_reps_as_one_longer_run() {
        let (mut a, mut b) = (rep(false, 1000.0, "f0"), rep(false, 250.0, "f0"));
        a.lat_us = vec![1.0, 2.0, 3.0, 4.0];
        b.lat_us = vec![5.0, 6.0, 7.0, 8.0];
        b.rejected = 60;
        b.setup_s = 0.7;
        let p = pooled(&[&a, &b]);
        // 1,000 ops in 0.5 s + 2 s, not the mean of the two rates.
        assert_eq!(p, vec![400.0, 2.0, 8.0, 0.92, 30.0, 0.6]);
        assert_eq!(pooled(&[&a])[0], a.end_to_end[0]);
    }

    #[test]
    fn reps_that_decide_differently_invalidate_the_workload() {
        let r = reduce("w", vec![rep(false, 1000.0, "f0"), rep(true, 990.0, "f1")]);
        assert!(!r.ok());
        // A shorter rep is compared on the marks both reached.
        let mut short = rep(false, 1000.0, "xx");
        short.arrivals = 50;
        short.marks.truncate(1);
        assert!(reduce("w", vec![rep(false, 1000.0, "f0"), short.clone()]).ok());
        short.marks[0].1 = "ab".into();
        assert!(!reduce("w", vec![rep(false, 1000.0, "f0"), short.clone()]).ok());
        // Another seed is another stream.
        short.seed = 2;
        assert!(reduce("w", vec![rep(false, 1000.0, "f0"), short]).ok());
    }
}
