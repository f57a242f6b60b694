//! The `decache-sim` binary end to end: out-of-range RWB thresholds,
//! machine shapes the builder cannot take and workloads too large for
//! the memory cap are rejected with an error and a failing exit status,
//! not a panic; the largest supported threshold runs, and so do
//! workloads whose footprint is past the smallest memory.

use std::process::{Command, Output};

fn sim(protocol: &str) -> Output {
    run(&["--protocol", protocol, "--pes", "2", "--ops", "20"])
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_decache-sim"))
        .args(args)
        .output()
        .expect("decache-sim starts")
}

#[test]
fn out_of_range_rwb_thresholds_fail_cleanly() {
    for protocol in ["rwb:0", "rwb:9"] {
        let out = sim(protocol);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{protocol}: exited successfully");
        assert!(
            stderr.contains("rwb threshold out of range"),
            "{protocol}: stderr was {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "{protocol}: {stderr}");
    }
}

#[test]
fn the_largest_rwb_threshold_runs() {
    let out = sim("rwb:8");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "rwb:8 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("RWB(k=8)"), "stdout was {stdout:?}");
}

#[test]
fn unbuildable_shapes_are_usage_errors() {
    for (flag, value) in [
        ("--pes", "70000"),
        ("--buses", "0"),
        ("--buses", "3"),
        ("--cache-lines", "0"),
        ("--cache-lines", "100"),
    ] {
        let out = run(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.starts_with(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn memory_is_sized_from_the_workload_footprint() {
    // The mix workload's private regions on 200 PEs, and a 100,000-word
    // array, both reach past the 32,768-word minimum memory.
    for args in [
        &["--pes", "200", "--ops", "200"][..],
        &["--workload", "array", "--ops", "100000"],
    ] {
        let out = run(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("cycles:"),
            "{args:?}: stdout was {stdout:?}"
        );
    }
}

#[test]
fn footprints_above_the_memory_cap_are_usage_errors() {
    let out = run(&["--workload", "array", "--ops", "100000000000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("--ops"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
