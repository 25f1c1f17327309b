//! `lvrmd`'s cluster flags between real processes over real UDP
//! (DESIGN.md §13, §15): an active/standby pair elects one master and the
//! standby takes over when the master exits; a three-shard fleet splits
//! the declared VRs so every one has exactly one owner.
//!
//! Wall-clock time and child processes, so `#[ignore]`d:
//! `cargo test --release --test lvrmd_cluster -- --ignored`.

use std::net::UdpSocket;
use std::process::{Child, Command, Stdio};

/// A loopback address on a free ephemeral port. The socket is closed
/// before `lvrmd` binds it; nothing else on the host is expected to take
/// the port in between.
fn free_addr() -> String {
    let s = UdpSocket::bind("127.0.0.1:0").expect("bind an ephemeral port");
    s.local_addr().expect("bound socket has an address").to_string()
}

/// Start `lvrmd` with `args` and a light self-test load.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_lvrmd"))
        .args(["--rate", "2000"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lvrmd")
}

/// Wait for `child` to exit cleanly and return its stdout.
fn output(child: Child) -> String {
    let out = child.wait_with_output().expect("lvrmd runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "lvrmd exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The `ha=` role on the last per-second tick line that carries one.
fn last_role(stdout: &str) -> &str {
    stdout
        .lines()
        .rev()
        .find_map(|line| line.split_whitespace().find_map(|w| w.strip_prefix("ha=")))
        .unwrap_or_else(|| panic!("no tick line with a role:\n{stdout}"))
}

/// Two daemons pointed at each other: exactly one ends as master while
/// both live, and when the master exits the standby ends as master.
#[test]
#[ignore = "spawns processes and runs on wall-clock time"]
fn ha_pair_elects_one_master_and_the_standby_takes_over() {
    let pair = |high_secs: &str, low_secs: &str| {
        let (a, b) = (free_addr(), free_addr());
        let high = spawn(&[
            "--duration",
            high_secs,
            "--ha-bind",
            &a,
            "--ha-peer",
            &b,
            "--ha-priority",
            "200",
            "--advert-interval",
            "50",
        ]);
        let low = spawn(&[
            "--duration",
            low_secs,
            "--ha-bind",
            &b,
            "--ha-peer",
            &a,
            "--ha-priority",
            "100",
            "--ha-node-id",
            "2",
            "--advert-interval",
            "50",
        ]);
        (output(high), output(low))
    };

    let (high, low) = pair("3", "3");
    let roles = [last_role(&high), last_role(&low)];
    assert_eq!(
        roles.iter().filter(|r| **r == "master").count(),
        1,
        "exactly one master while both live, got {roles:?}\n{high}\n{low}"
    );

    let (_, low) = pair("1", "3");
    assert_eq!(last_role(&low), "master", "the standby takes over:\n{low}");
}

/// Three shards over a full UDP mesh: the shares each prints at attach
/// add up to the declared VRs.
#[test]
#[ignore = "spawns processes and runs on wall-clock time"]
fn three_shards_own_every_vr_exactly_once() {
    let config = std::env::temp_dir().join(format!("lvrmd-cluster-{}.conf", std::process::id()));
    std::fs::write(
        &config,
        "vr dept1 10.0.1.0/24 10.0.101.0/24\n\
         vr dept2 10.0.2.0/24 10.0.102.0/24\n\
         vr dept3 10.0.3.0/24 10.0.103.0/24\n",
    )
    .expect("write the fleet config");
    let config_arg = config.to_str().expect("temp path is UTF-8").to_string();

    // addr[i][j]: shard i's end of its link to shard j.
    let addr: Vec<Vec<String>> = (0..3).map(|_| (0..3).map(|_| free_addr()).collect()).collect();
    let children: Vec<Child> = (0..3)
        .map(|i| {
            let mut args: Vec<String> = ["--duration", "2", "--config", &config_arg]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(["--shard-id".into(), i.to_string(), "--shards".into(), "3".into()]);
            for j in (0..3).filter(|&j| j != i) {
                args.push("--fleet-peer".into());
                args.push(format!("{j},{},{}", addr[i][j], addr[j][i]));
            }
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            spawn(&args)
        })
        .collect();
    let outputs: Vec<String> = children.into_iter().map(output).collect();
    let _ = std::fs::remove_file(&config);

    let mut served = 0;
    for (i, out) in outputs.iter().enumerate() {
        let line = out
            .lines()
            .find(|l| l.starts_with(&format!("fleet: shard {i}/3 serving ")))
            .unwrap_or_else(|| panic!("shard {i} printed no fleet line:\n{out}"));
        let owned: usize = line
            .split_whitespace()
            .nth(4)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unreadable fleet line {line:?}"));
        assert!(line.contains(" of 3 declared VRs"), "{line}");
        served += owned;
    }
    assert_eq!(served, 3, "every declared VR has exactly one owner:\n{}", outputs.join("\n"));
}
