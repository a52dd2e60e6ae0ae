//! Regenerate the paper's evaluation and check every claim it makes:
//! `cargo run --release -p cm-bench --bin reproduce [-- --full] [--only NAME]`.
//! Prints each entry's tables and one verdict per claim; exits non-zero
//! when any claim fails or an argument is not understood.

use cm_bench::figures::{Args, Verdict};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let size = if args.mode.full { "--full" } else { "quick" };
    let mut failed = Vec::new();
    for (name, build) in args.entries() {
        println!("\n{}", "=".repeat(72));
        println!("=== {name} ({size})");
        println!("{}", "=".repeat(72));
        let figure = build(args.mode);
        print!("{}", figure.text());
        println!();
        for claim in figure.claims() {
            println!("{claim}");
            if claim.verdict == Verdict::Fail {
                failed.push(format!("{name}/{}", claim.name));
            }
        }
    }
    if failed.is_empty() {
        println!("\nEvery checked claim holds.");
        ExitCode::SUCCESS
    } else {
        println!("\nFailed claims: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
