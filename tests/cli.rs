//! The `decache-sim` binary end to end: out-of-range RWB thresholds are
//! rejected with an error and a failing exit status, not a panic, and
//! the largest supported threshold runs.

use std::process::{Command, Output};

fn sim(protocol: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_decache-sim"))
        .args(["--protocol", protocol, "--pes", "2", "--ops", "20"])
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
