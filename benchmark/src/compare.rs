//! `compare base.json new.json`: the benchmark's own bounds applied to two
//! result files, one row per (end-to-end metric, workload).

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side differ among themselves by more than the
    /// bound, so a change within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's measurement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub median: f64,
    /// `(max − min) / median` over the side's reps.
    pub spread: f64,
}

/// Judge `new` against `base`. A difference counts only when it exceeds
/// both the metric's relative bound and its absolute floor.
pub fn judge(m: &EndToEnd, base: Sample, new: Sample) -> Verdict {
    let worse_by = match m.better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    let limit = (m.bound * base.median.abs()).max(m.floor);
    let noise = (base.spread * base.median.abs()).max(new.spread * new.median.abs());
    if noise > limit {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else if -worse_by > limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn sample(file: &Json, workload: &str, metric: &str) -> Option<Sample> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Sample {
        median: m.get("value")?.as_f64()?,
        spread: m.get("spread")?.as_f64()?,
    })
}

/// Compare two parsed result files. Returns the printed rows and whether
/// the two sets agree (no row regressed or unresolved, decisions equal).
pub fn compare(base: &Json, new: &Json) -> Result<(Vec<String>, bool), String> {
    let workloads = base
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base file has no `workloads`")?;
    let mut rows = Vec::new();
    let mut agree = true;
    for (w, base_w) in workloads {
        let new_w = new
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .ok_or_else(|| format!("new file lacks workload {w}"))?;
        for m in &END_TO_END {
            let (Some(b), Some(n)) = (sample(base, w, m.name), sample(new, w, m.name)) else {
                return Err(format!("{w}: {} missing from a file", m.name));
            };
            let verdict = judge(m, b, n);
            agree &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            rows.push(format!(
                "{w:<13} {:<13} {:<10} new {:>12.4} / base {:>12.4} {:<5} = {:.4}  (spread base {:.1}% new {:.1}%, bound {:.0}%)",
                m.name,
                verdict.as_str(),
                n.median,
                b.median,
                m.unit,
                n.median / b.median,
                b.spread * 100.0,
                n.spread * 100.0,
                m.bound * 100.0,
            ));
        }
        // Same seed and arrival count: the two sets must have decided the
        // same, op for op. Different seeds or lengths cannot be compared.
        let comparable =
            base.get("seed") == new.get("seed") && base_w.get("arrivals") == new_w.get("arrivals");
        let same = ["ops", "refused", "fingerprint"]
            .iter()
            .all(|k| base_w.get(k) == new_w.get(k));
        let decisions = match (comparable, same) {
            (false, _) => "not comparable (seed or length differs)",
            (true, true) => "identical",
            (true, false) => {
                agree = false;
                "DIFFER"
            }
        };
        rows.push(format!("{w:<13} {:<13} {decisions}", "decisions"));
        for (side, f) in [("base", base_w), ("new", new_w)] {
            if f.get("valid").and_then(Json::as_bool) != Some(true) {
                agree = false;
                rows.push(format!(
                    "{w:<13} {:<13} {side} run failed its checks",
                    "validity"
                ));
            }
        }
    }
    Ok((rows, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn s(median: f64, spread: f64) -> Sample {
        Sample { median, spread }
    }

    #[test]
    fn relative_bounds_in_both_directions() {
        let p25 = metric("op_p25_us"); // lower is better, 25%
        assert_eq!(
            judge(p25, s(100.0, 0.01), s(120.0, 0.01)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(p25, s(100.0, 0.01), s(126.0, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(judge(p25, s(100.0, 0.01), s(74.0, 0.01)), Verdict::Improved);
        let rate = metric("ops_per_s"); // higher is better, 25%
        assert_eq!(
            judge(rate, s(1000.0, 0.0), s(740.0, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, s(1000.0, 0.0), s(1260.0, 0.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(rate, s(1000.0, 0.0), s(900.0, 0.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let p95 = metric("op_p95_us");
        assert_eq!(
            judge(p95, s(100.0, 0.30), s(100.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p95, s(100.0, 0.01), s(130.0, 0.2)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn absolute_floors_on_setup_and_memory() {
        let setup = metric("setup_s"); // 25% and 0.05 s
        assert_eq!(
            judge(setup, s(0.030, 0.0), s(0.060, 0.0)),
            Verdict::Unchanged,
            "doubled, but by 30 ms"
        );
        assert_eq!(judge(setup, s(1.0, 0.0), s(1.3, 0.0)), Verdict::Regressed);
        assert_eq!(
            judge(setup, s(0.030, 0.9), s(0.031, 0.9)),
            Verdict::Unchanged,
            "a noisy 30 ms is still under the floor"
        );
        let rss = metric("peak_rss_mb"); // 25% and 2 MB
        assert_eq!(judge(rss, s(6.0, 0.0), s(7.9, 0.0)), Verdict::Unchanged);
        assert_eq!(judge(rss, s(6.0, 0.0), s(8.1, 0.0)), Verdict::Regressed);
        assert_eq!(judge(rss, s(90.0, 0.0), s(110.0, 0.0)), Verdict::Unchanged);
        assert_eq!(judge(rss, s(90.0, 0.0), s(115.0, 0.0)), Verdict::Regressed);
    }

    fn file(seed: f64, p25: f64, fingerprint: &str) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|m| {
            let value = if m.name == "op_p25_us" { p25 } else { 1.0 };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("spread", Json::Num(0.0))]),
            )
        }));
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("valid", Json::Bool(true)),
                        ("arrivals", Json::Num(10.0)),
                        ("ops", Json::Num(50.0)),
                        ("refused", Json::Num(2.0)),
                        ("fingerprint", Json::str(fingerprint)),
                        ("end_to_end", e2e),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn files_agree_only_without_regressions_and_with_equal_decisions() {
        let (rows, agree) = compare(&file(1.0, 100.0, "aa"), &file(1.0, 104.0, "aa")).unwrap();
        assert!(agree, "{rows:#?}");
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        assert!(
            !compare(&file(1.0, 100.0, "aa"), &file(1.0, 130.0, "aa"))
                .unwrap()
                .1
        );
        assert!(
            !compare(&file(1.0, 100.0, "aa"), &file(1.0, 100.0, "bb"))
                .unwrap()
                .1
        );
        // Another seed decides differently by design.
        assert!(
            compare(&file(1.0, 100.0, "aa"), &file(7.0, 100.0, "bb"))
                .unwrap()
                .1
        );
        assert!(compare(
            &file(1.0, 100.0, "aa"),
            &Json::obj([("seed", Json::Num(1.0))])
        )
        .is_err());
    }
}
