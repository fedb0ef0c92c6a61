//! `spsim` argument handling: bad flags and flag values are reported as
//! errors (exit code 1, naming the flag) rather than panics, silently
//! ignored flags or degenerate workloads.

use std::process::{Command, Output};

/// Small sizes keep any run that wrongly proceeds cheap.
const SIZES: [&str; 6] = ["--requests", "4", "--input", "64", "--output", "4"];

fn spsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spsim")).args(args).output().expect("spsim runs")
}

/// Asserts that `args` exits 1 without panicking, with an error that
/// mentions `names`.
fn assert_rejected(args: &[&str], names: &str) {
    let out = spsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = format!("spsim {}", args.join(" "));
    assert_eq!(out.status.code(), Some(1), "{what}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert!(stderr.contains(names), "{what}: error should name {names}: {stderr}");
}

/// The subcommands that generate a workload from the numeric flags.
const WORKLOAD_COMMANDS: [&[&str]; 3] = [&["run"], &["compare"], &["trace", "poisson"]];

#[test]
fn non_positive_or_non_finite_rate_is_an_error() {
    for cmd in WORKLOAD_COMMANDS {
        for rate in ["0", "-1", "nan", "inf"] {
            assert_rejected(&[cmd, &SIZES[..], &["--rate", rate]].concat(), "--rate");
        }
    }
}

#[test]
fn rate_that_spreads_arrivals_past_the_cap_is_an_error() {
    // Two arrivals at rate 1e-300 land near 1e300 s, far past
    // `MAX_ARRIVAL_SECS`; at 1e-310 a single gap would overflow.
    for cmd in WORKLOAD_COMMANDS {
        for rate in ["1e-300", "1e-310"] {
            assert_rejected(&[cmd, &["--requests", "2", "--rate", rate]].concat(), "--rate");
        }
    }
}

#[test]
fn every_numeric_flag_rejects_bad_values() {
    let bad: [(&str, &[&str]); 5] = [
        ("--requests", &["0", "-1", "1.5", "x", "1000001", "99999999999999999999"]),
        ("--rate", &["x", "1e999", ""]),
        ("--input", &["0", "-1", "4294967296", "x"]),
        ("--output", &["-1", "4294967296", "2.5"]),
        ("--seed", &["-1", "18446744073709551616", "x"]),
    ];
    for cmd in WORKLOAD_COMMANDS {
        for (flag, values) in bad {
            for &value in values {
                // The bad value comes last, so it overrides nothing: each
                // flag may be given only once.
                let sizes: Vec<&str> =
                    SIZES.chunks(2).filter(|pair| pair[0] != flag).flatten().copied().collect();
                assert_rejected(&[cmd, &sizes[..], &[flag, value]].concat(), flag);
            }
        }
    }
}

#[test]
fn unknown_and_valueless_flags_are_errors() {
    for cmd in WORKLOAD_COMMANDS {
        assert_rejected(&[cmd, &SIZES[..], &["--gpus", "0"]].concat(), "--gpus");
        assert_rejected(&[cmd, &SIZES[..], &["--seconds", "nan"]].concat(), "--seconds");
        // A trailing flag with no value.
        assert_rejected(&[cmd, &SIZES[..], &["--seed"]].concat(), "--seed");
        // A stray positional argument.
        assert_rejected(&[cmd, &SIZES[..], &["stray"]].concat(), "stray");
        // The same flag twice.
        assert_rejected(&[cmd, &SIZES[..], &["--input", "8"]].concat(), "--input");
    }
    // Each subcommand accepts only its own flags.
    assert_rejected(&["compare", "--kind", "dp"], "--kind");
    assert_rejected(&["trace", "poisson", "--model", "qwen-32b"], "--model");
    assert_rejected(&["run", "--out", "x.jsonl"], "--out");
    assert_rejected(&["plan", "--seed", "1"], "--seed");
}

#[test]
fn valid_flags_still_run() {
    let out = spsim(&[&["run", "--kind", "dp", "--seed", "3", "--rate", "4"], &SIZES[..]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("done 4 rej 0"), "{stdout}");
    let out = spsim(&[&["trace", "poisson"], &SIZES[..]].concat());
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 4);
}

/// Every request a saved trace holds is served or rejected when the
/// file is replayed.
#[test]
fn every_trace_kind_round_trips_through_a_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for kind in ["poisson", "batch", "bursty", "azure", "mooncake"] {
        let path = dir.join(format!("cli_round_trip_{kind}.jsonl"));
        let path = path.to_str().expect("a UTF-8 path");
        let out = spsim(&["trace", kind, "--out", path]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "trace {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let written = std::fs::read_to_string(path).expect("the trace was written").lines().count();
        assert!(written > 0, "trace {kind} wrote no requests");

        let out = spsim(&["run", "--kind", "tp", "--model", "qwen-32b", "--file", path]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "run {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let count = |label: &str| -> usize {
            let at = stdout.find(label).unwrap_or_else(|| panic!("no `{label}` in {stdout}"));
            let value = stdout[at + label.len()..].split_whitespace().next();
            value.and_then(|n| n.parse().ok()).expect("a count")
        };
        assert_eq!(count(" done ") + count(" rej "), written, "run {kind}: {stdout}");
        std::fs::remove_file(path).expect("remove the trace");
    }
}
