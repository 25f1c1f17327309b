//! `lvrmd` refuses flag values it would otherwise misread: it exits 2 with
//! a message instead of running on a default or a nonsense value.

use std::process::{Command, Stdio};

/// Run `lvrmd` with `args` and return its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lvrmd"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run lvrmd");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_trailing_config_flag_without_a_file_exits_2() {
    let (code, stderr) = run(&["--duration", "1", "--config"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--config"), "stderr: {stderr}");
}

#[test]
fn rates_the_generator_cannot_pace_exit_2() {
    // 0 would send one frame, the others flood with zero spacing.
    for rate in ["0", "-5", "nan", "NaN", "inf", "-inf", "1e12"] {
        let (code, stderr) = run(&["--duration", "1", "--rate", rate]);
        assert_eq!(code, Some(2), "--rate {rate}: stderr: {stderr}");
        assert!(stderr.contains("--rate"), "--rate {rate}: stderr: {stderr}");
    }
}
