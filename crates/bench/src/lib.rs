//! # cm-bench
//!
//! Reproduction harness: one binary per table/figure of the paper's
//! evaluation (§5) plus Criterion benches for the §5.1 runtime claims.
//!
//! Every binary prints a self-describing table with the paper's expected
//! qualitative shape noted, and accepts `--full` to run at the paper's
//! scale (10,000 arrivals) instead of the faster default. All runs are
//! seeded and deterministic.

use cm_sim::SimConfig;

/// Command-line knobs shared by the harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunMode {
    /// Paper-scale run (10,000 arrivals) instead of the quick default.
    pub full: bool,
}

impl RunMode {
    /// Parse from `std::env::args` (recognizes `--full`).
    pub fn from_args() -> RunMode {
        RunMode {
            full: std::env::args().any(|a| a == "--full"),
        }
    }

    /// Number of tenant arrivals per simulation point.
    pub fn arrivals(&self) -> usize {
        if self.full {
            10_000
        } else {
            3_000
        }
    }

    /// The default simulation configuration for this mode.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.arrivals = self.arrivals();
        cfg
    }
}

/// Print a markdown-ish table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: Vec<String>| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", body.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for r in rows {
        line(r.clone());
    }
}

/// Format a rate as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
