//! The benchmark checking itself: `--smoke`, `--spread k`, `--repeat k`.
//! Every run is a fresh process of this same binary (peak RSS is per
//! process), one at a time.

use std::process::{Command, ExitCode};

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// `name -> value` of one result line, as this binary prints it.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = tail;
    }
    out
}

/// One untraced run in a child process; its end-to-end metrics.
fn run_once(workload: &str, seed: u64, seconds: u32) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let metrics = parse_metrics(line);
    if metrics.len() != END_TO_END.len() || !line.starts_with("{\"correct\": true") {
        return Err(format!("{workload} seed {seed}: unexpected result line {line:?}"));
    }
    Ok(metrics)
}

/// One run per seed, in order; the first failure ends the check.
fn run_seeds(
    workload: &str,
    seeds: impl Iterator<Item = u64>,
    seconds: u32,
) -> Result<Vec<Vec<(String, f64)>>, String> {
    seeds.map(|seed| run_once(workload, seed, seconds)).collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v)
}

/// Two seconds per workload, checks only: for CI.
pub fn smoke() -> ExitCode {
    for w in &WORKLOADS {
        match run_once(w.name, 1, 2) {
            Ok(_) => eprintln!("smoke {}: ok", w.name),
            Err(why) => {
                eprintln!("smoke failed: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `k` runs per workload on `k` seeds: each metric's quartile spread as a
/// share of its median, against its bound (a third of it is the target).
pub fn spread_check(k: usize, seconds: u32) -> ExitCode {
    let mut ok = true;
    println!("workload metric median spread bound verdict");
    for w in &WORKLOADS {
        let runs = match run_seeds(w.name, 1..=k as u64, seconds) {
            Ok(runs) => runs,
            Err(why) => {
                eprintln!("spread failed: {why}");
                return ExitCode::FAILURE;
            }
        };
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| value(r, m.name)).collect();
            let (s, bound) = (spread(&values), m.bound.expect("end-to-end bound"));
            let verdict = if s <= bound / 3.0 {
                "steady"
            } else if s <= bound || m.name == "setup_s" {
                "within-bound"
            } else {
                ok = false;
                "TOO-NOISY"
            };
            println!("{} {} {} {:.5} {} {verdict}", w.name, m.name, median(&values), s, bound);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of all workloads on different seeds, each metric the median of
/// `k` runs; fails if the second set is worse than the first by more than
/// the metric's bound.
pub fn repeat(k: usize, seconds: u32) -> ExitCode {
    let mut ok = true;
    println!("workload metric first second worse_by bound verdict");
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for set in 0..2u64 {
            let first = 101 + set * 1000;
            match run_seeds(w.name, first..first + k as u64, seconds) {
                Ok(runs) => sets.push(runs),
                Err(why) => {
                    eprintln!("repeat failed: {why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for m in &END_TO_END {
            let med = |set: &Vec<Vec<(String, f64)>>| {
                median(&set.iter().map(|r| value(r, m.name)).collect::<Vec<f64>>())
            };
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let bound = m.bound.expect("end-to-end bound");
            let verdict = if worse_by.abs() <= bound { "agree" } else { "DISAGREE" };
            ok &= worse_by.abs() <= bound;
            println!("{} {} {a} {b} {worse_by:.5} {bound} {verdict}", w.name, m.name);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c.d\": {\"value\": 7, \"unit\": \"s\"}}}";
        assert_eq!(parse_metrics(line), vec![("a_b".to_string(), 1.25), ("c.d".to_string(), 7.0)]);
    }
}
