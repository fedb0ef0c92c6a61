//! `spsim` argument handling: bad flag values are reported as errors
//! (exit code 1) rather than panics or silently degenerate workloads.

use std::process::Command;

#[test]
fn non_positive_or_non_finite_rate_is_an_error() {
    // Small sizes keep any run that wrongly proceeds cheap.
    let sizes = ["--requests", "4", "--input", "64", "--output", "4"];
    for cmd in [&["run"][..], &["compare"], &["trace", "poisson"]] {
        for rate in ["0", "-1", "nan", "inf"] {
            let out = Command::new(env!("CARGO_BIN_EXE_spsim"))
                .args(cmd)
                .args(sizes)
                .args(["--rate", rate])
                .output()
                .expect("spsim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("spsim {} --rate {rate}", cmd.join(" "));
            assert_eq!(out.status.code(), Some(1), "{what}: stderr {stderr}");
            assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
            assert!(stderr.contains("--rate"), "{what}: error should name the flag: {stderr}");
        }
    }
}
