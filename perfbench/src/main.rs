//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans-out <file>]`
//!
//! Prints a record line (the deterministic fingerprint and any check
//! failures) and then, as the last line, the result object. Exits 1 when
//! a check failed, 2 on bad arguments.

use perfbench::harness::{Options, Scale, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--spans-out <file>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workload: Workload::GupsLanes2,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        spans_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--spans-out" => opts.spans_out = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("missing or unknown --workload"));

    let outcome = perfbench::run(&opts);
    println!("{}", outcome.record_json(&opts));
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", outcome.result_json());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
