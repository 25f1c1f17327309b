//! `lvrm-benchmark`: one workload, one seed, one run (see README.md).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs the
//! set-up seven times, the closed loop, the open loop and the output
//! checks, and prints one JSON line: the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). `--print-benchmark-json`,
//! `--smoke`, `--spread k` and `--repeat k` are the tooling around it.

mod alloc_count;
mod gen;
mod probes;
mod report;
mod rig;
mod selfcheck;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]\n       \
         run.sh --print-benchmark-json | --smoke | --spread <k> | --repeat <k>",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: None, seed: 1, seconds: spec::RUN_SECONDS, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--print-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--smoke" => return selfcheck::smoke(),
            "--spread" | "--repeat" => {
                let Some(k) = value().and_then(|v| v.parse::<usize>().ok()).filter(|k| *k >= 2)
                else {
                    return usage();
                };
                return if flag == "--spread" {
                    selfcheck::spread_check(k, args.seconds)
                } else {
                    selfcheck::repeat(k, args.seconds)
                };
            }
            "--workload" => args.workload = value().map(str::to_string),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(s) => args.seed = s,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse().ok()).filter(|s| *s >= 1) {
                Some(s) => args.seconds = s,
                None => return usage(),
            },
            "--trace" => match value() {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(w) = args.workload.as_deref().and_then(spec::workload) else {
        return usage();
    };
    match report::run(w, args.seed, args.seconds, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("benchmark failed: {why}");
            ExitCode::FAILURE
        }
    }
}
