//! Two untraced runs of one seed give identical exact counts and
//! simulated-time metrics; a traced run leaves the exact counts alone.
//!
//! Run: `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`

use e2ebench::sim;

fn small(name: &str) -> sim::Shape {
    let mut s = sim::shape(name).expect("named workload");
    s.measure_s = 20;
    s.history = s.history.min(100);
    if let Some(c) = &mut s.crashes {
        c.count = 2;
        s.measure_s = c.first_s + c.count * c.every_s;
    }
    s
}

#[test]
fn untraced_runs_of_one_seed_repeat_exactly() {
    for name in ["sim_write_heavy", "sim_read_heavy", "sim_failover"] {
        let shape = small(name);
        let a = sim::run(&shape, 7, false);
        let b = sim::run(&shape, 7, false);
        assert!(a.failures.is_empty(), "{name}: {:?}", a.failures);
        assert!(a.lat.issued > 0, "{name}: no saves issued");
        assert_eq!(sim::fingerprint(&a), sim::fingerprint(&b), "{name}");
        let traced = sim::run(&shape, 7, true);
        assert_eq!(a.exact, traced.exact, "{name}: tracing changed the run");
        assert!(
            !traced.layers.is_empty(),
            "{name}: traced run has no layers"
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let shape = small("sim_write_heavy");
    let a = sim::run(&shape, 1, false);
    let b = sim::run(&shape, 2, false);
    assert_ne!(sim::fingerprint(&a), sim::fingerprint(&b));
}
