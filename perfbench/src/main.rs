//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <paper-figs|flow-scale|serve-mix> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --print-digests [--seed N]   # expected-digest table source
//! ```
//!
//! Human-readable lines (one per metric, with unit and sample count, and
//! the machine record) go to stdout first; the last line of stdout is
//! the JSON result. Spans of a traced run and failure details go to
//! stderr.

use perfbench::{run, sys, verify, Opts, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench --print-digests [--seed N]",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let Some(dir) = args.get(1) else {
            return usage("daemon needs a cache directory");
        };
        return match perfbench::serve_mix::daemon_main(std::path::Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("pass") {
        let parsed = match &args[1..] {
            [w, seed, i] => seed
                .parse()
                .ok()
                .zip(i.parse().ok())
                .map(|(s, i)| (w, s, i)),
            _ => None,
        };
        let Some((w, seed, i)) = parsed else {
            return usage("pass needs a workload, a seed and a pass index");
        };
        return match perfbench::inproc::pass_main(w, seed, i) {
            Ok(lines) => {
                print!("{lines}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut opts = Opts {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        exe: match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return usage(&format!("cannot locate the benchmark binary: {e}")),
        },
    };
    let print_digests = args.iter().any(|a| a == "--print-digests");
    let flags: Vec<&String> = args.iter().filter(|a| *a != "--print-digests").collect();
    for pair in flags.chunks(2) {
        let value = pair.get(1).map_or_else(String::new, |v| v.to_string());
        let parsed = match pair[0].as_str() {
            "--workload" => {
                opts.workload = value;
                Ok(())
            }
            "--seed" => value
                .parse()
                .map(|v| opts.seed = v)
                .map_err(|_| "--seed expects an integer"),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => {
                    opts.seconds = s;
                    Ok(())
                }
                _ => Err("--seconds expects a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    Ok(())
                }
                _ => Err("--trace expects 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            return usage(e);
        }
    }
    if print_digests {
        return match perfbench::print_digests(opts.seed) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let res = match run(&opts, verify::EXPECTED) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &res.errors {
        eprintln!("failed: {e}");
    }
    eprint!("{}", res.spans);
    println!("{}", sys::machine_record());
    for m in &res.metrics {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "failed_frac = {} ratio (n={})",
        res.failed_frac(),
        res.attempted
    );
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    match res.select(wanted) {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
