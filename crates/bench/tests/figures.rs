//! Every figure in `sp_bench::figures::FIGURES` prints exactly the bytes
//! committed in `results/<name>.txt`.
//!
//! A change that alters a figure on purpose regenerates its file with
//! `cargo run --release -p sp-bench --bin <name> > results/<name>.txt`
//! and says why in CHANGES.md.

use sp_bench::figures::{Figure, FIGURES};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs `figure` and compares its output with `results/<name>.txt`;
/// `Err` names the figure and its first differing line on both sides.
fn check(name: &str, figure: Figure) -> Result<(), String> {
    let mut got = Vec::new();
    figure(&mut got).map_err(|e| format!("{name}: write failed: {e}"))?;
    let path = results_dir().join(format!("{name}.txt"));
    let want = std::fs::read(&path).map_err(|e| format!("{name}: {}: {e}", path.display()))?;
    if got == want {
        return Ok(());
    }
    let (got, want) = (String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    let mut line = 1;
    loop {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => line += 1,
            (g, w) => {
                return Err(format!(
                    "figure {name} differs from results/{name}.txt at line {line}:\n  \
                     results: {}\n  printed: {}",
                    w.unwrap_or("<end of file>"),
                    g.unwrap_or("<end of output>"),
                ));
            }
        }
    }
}

#[test]
fn every_figure_prints_its_committed_results() {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let workers = thread::available_parallelism().map_or(1, |n| n.get()).min(FIGURES.len());
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&(name, figure)) = FIGURES.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    if let Err(e) = check(name, figure) {
                        failures.lock().expect("no figure thread panics holding it").push(e);
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().expect("no figure thread panicked");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_results_file_has_a_figure() {
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(results_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "txt") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            if !FIGURES.iter().any(|&(name, _)| name == stem) {
                orphans.push(stem);
            }
        }
    }
    assert!(orphans.is_empty(), "results/ files with no entry in FIGURES: {orphans:?}");
}
