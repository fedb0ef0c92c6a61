//! The timing wrappers must not change what is simulated: every wrapper
//! forwards every trait method, so a traced run reproduces the untraced
//! run's output exactly, at any fan-out width and through either path
//! (`Fleet` or the benchmark's own `ClusterSim`) for the deployment
//! workload. Runs at the small sizes so debug builds finish quickly.

use perfbench::metrics;
use perfbench::probe::C;
use perfbench::workloads::{Rep, RunOpts, Size, Workload};

fn run(w: Workload, traced: bool, threads: Option<usize>) -> Rep {
    w.run(Size::Small, 7, RunOpts { traced, threads })
}

#[test]
fn wrapped_runs_reproduce_unwrapped_output() {
    for w in Workload::ALL {
        let plain = run(w, false, Some(1));
        assert!(plain.outcome.conserves_requests(), "{}: {:?}", w.name(), plain.outcome);
        assert!(plain.outcome.completed > 0, "{}: nothing completed", w.name());
        for (traced, threads) in [(true, Some(1)), (false, None), (true, Some(2))] {
            let other = run(w, traced, threads);
            assert_eq!(
                other.fingerprint,
                plain.fingerprint,
                "{}: traced {traced}, width {threads:?} changed the simulated output",
                w.name()
            );
            assert_eq!(other.outcome, plain.outcome, "{}", w.name());
        }
    }
}

#[test]
fn wrapped_engines_keep_macro_stepping() {
    // A wrapper that fell back to the default `SimNode::step_run` would
    // never fast-forward: every event would go through `step_once`.
    let rep = run(Workload::ShiftDrain, true, Some(1));
    let probe = &rep.layers.as_ref().expect("traced").probe;
    assert!(probe.get(C::StepRunHits) > 0, "no macro-step ran through the wrapper");
    assert!(
        2 * probe.get(C::RunEvents) > rep.outcome.iterations,
        "most drain events should be macro-stepped: {} of {}",
        probe.get(C::RunEvents),
        rep.outcome.iterations
    );
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let plain = run(Workload::DpBurst, false, Some(1));
    let traced = run(Workload::DpBurst, true, Some(1));
    let metrics: Vec<_> = metrics::end_to_end(std::slice::from_ref(&plain), 1.0)
        .into_iter()
        .chain(metrics::per_layer(&traced, 0.0))
        .collect();
    for (name, unit, _) in &metrics {
        let at = json.find(&format!("\"name\": \"{name}\"")).unwrap_or_else(|| panic!("{name}"));
        let rest = &json[at..];
        let unit_at = rest.find("\"unit\": \"").expect("unit follows name") + 9;
        assert!(rest[unit_at..].starts_with(&format!("{unit}\"")), "{name} is not in {unit}");
    }
    // Every listed workload exists; `dp_burst` is runnable but not listed.
    let listed =
        Workload::ALL.iter().filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())));
    assert_eq!(json.matches("\"name\":").count(), metrics.len() + listed.count());
}
