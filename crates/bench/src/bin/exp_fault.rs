//! **Fault matrix — the adversarial envelope, invariant-gated.**
//!
//! Runs every named fault scenario (`workload::scenario::named_scenarios`:
//! partitions racing a master handoff, crash-with-disk storms, churn
//! under load, duplicate-heavy and lossy links, asymmetric partitions,
//! laggy masters) deterministically under fixed seeds, and requires all
//! five correctness oracles (timestamp continuity, per-replica total
//! order, replica convergence, equivocation freedom, epoch
//! monotonicity) to pass in **every** scenario — the
//! paper's guarantees only matter under faults, so this is the harness
//! CI gates on (`fault-matrix` job).
//!
//! Output: a per-scenario pass/fail + perf table on stdout, a `faults`
//! section merged into `BENCH_hotpath.json` (deterministic fields are
//! baseline-compared by CI), and — when `$GITHUB_STEP_SUMMARY` is set —
//! a markdown table with per-scenario names for the CI step summary.
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_fault`
//! Flags: `--quick` (smaller rings/windows, CI mode), `--out PATH`
//! (default `BENCH_hotpath.json`).

use std::fmt::Write as _;
use std::path::PathBuf;

use ltr_bench::{merge_bench_section, ok, print_table};
use workload::scenario::{named_scenarios, run_scenario, ScenarioOutcome};

/// Fixed per-scenario seed: stable across runs and machines so the
/// deterministic fields in the JSON are baseline-comparable. Kept
/// aligned with `tests/tests/fault_matrix.rs` (`SEED_BASE`), which
/// documents why the base sits at `0xFA_0200`.
fn seed_for(index: usize) -> u64 {
    0xFA_0200 + index as u64
}

fn render_faults_json(quick: bool, outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    out.push_str("  \"faults\": {\n");
    let _ = writeln!(out, "    \"quick\": {quick},");
    out.push_str("    \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"name\": \"{}\", \"peers\": {}, \"sim_secs\": {:.3}, \
             \"wall_ms\": {:.1}, \"edits\": {}, \"grants\": {}, \"msgs\": {}, \
             \"events\": {}, \"crashes\": {}, \"restarts\": {}, \
             \"faults_dropped\": {}, \"faults_duplicated\": {}, \
             \"faults_reordered\": {}, \"faults_cut\": {}, \
             \"push_sent\": {}, \"push_integrated\": {}, \
             \"continuity\": {}, \"total_order\": {}, \"converged\": {}, \
             \"equivocation_free\": {}, \"epoch_monotonic\": {}, \
             \"pass\": {}}}{}",
            o.name,
            o.peers,
            o.sim_secs,
            o.wall_ms,
            o.edits,
            o.grants,
            o.msgs,
            o.events,
            o.crashes,
            o.restarts,
            o.faults_dropped,
            o.faults_duplicated,
            o.faults_reordered,
            o.faults_cut,
            o.push_sent,
            o.push_integrated,
            o.continuity,
            o.total_order,
            o.converged,
            o.equivocation_free,
            o.epoch_monotonic,
            o.ok(),
            comma,
        );
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"all_pass\": {}", outcomes.iter().all(|o| o.ok()));
    out.push_str("  }\n");
    out
}

/// Append a markdown per-scenario table to `$GITHUB_STEP_SUMMARY` when
/// running under GitHub Actions (the `fault-matrix` job's summary).
fn write_step_summary(outcomes: &[ScenarioOutcome]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::from(
        "## Fault scenario matrix\n\n\
         | scenario | result | grants | crashes | restarts | dropped | dup | cut |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for o in outcomes {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |",
            o.name,
            if o.ok() { "✅ pass" } else { "❌ FAIL" },
            o.grants,
            o.crashes,
            o.restarts,
            o.faults_dropped,
            o.faults_duplicated,
            o.faults_cut,
        );
    }
    for o in outcomes.iter().filter(|o| !o.ok()) {
        let _ = writeln!(md, "\n`{}` invariants: {}", o.name, o.detail);
    }
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) {
        let _ = f.write_all(md.as_bytes());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = PathBuf::from(
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_hotpath.json"),
    );

    let scenarios = named_scenarios(quick);
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for (i, sc) in scenarios.iter().enumerate() {
        let o = run_scenario(sc, seed_for(i));
        println!(
            "{:<28} {} | wall {:>7.1} ms | {:>5} grants | {:>3} crashes | {:>3} restarts | \
             {:>6} dropped | {:>6} dup | {:>6} cut | {}",
            o.name,
            if o.ok() { "PASS" } else { "FAIL" },
            o.wall_ms,
            o.grants,
            o.crashes,
            o.restarts,
            o.faults_dropped,
            o.faults_duplicated,
            o.faults_cut,
            o.detail,
        );
        outcomes.push(o);
    }

    print_table(
        "fault matrix: invariants under the adversarial envelope",
        &[
            "scenario", "pass", "grants", "edits", "crashes", "restarts", "dropped", "dup",
            "reord", "cut", "cont", "order", "conv", "equiv", "epoch",
        ],
        &outcomes
            .iter()
            .map(|o| {
                vec![
                    o.name.clone(),
                    ok(o.ok()),
                    o.grants.to_string(),
                    o.edits.to_string(),
                    o.crashes.to_string(),
                    o.restarts.to_string(),
                    o.faults_dropped.to_string(),
                    o.faults_duplicated.to_string(),
                    o.faults_reordered.to_string(),
                    o.faults_cut.to_string(),
                    ok(o.continuity),
                    ok(o.total_order),
                    ok(o.converged),
                    ok(o.equivocation_free),
                    ok(o.epoch_monotonic),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let faults = render_faults_json(quick, &outcomes);
    merge_bench_section(&out_path, "faults", &faults);
    println!("\nmerged fault-matrix metrics into {}", out_path.display());
    write_step_summary(&outcomes);

    if outcomes.iter().any(|o| !o.ok()) {
        eprintln!("FAILURE: an invariant was violated under fault injection");
        std::process::exit(1);
    }
}
