//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the workload (a fresh ring each time, the same inputs) until
//! `--seconds` have passed, checks every repetition's outputs, prints a
//! report, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 on a failed correctness check.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use e2ebench::stats::{self, median, supported};
use e2ebench::{put, sim, socket, Rep, Value, Values};

/// End-to-end metrics printed in the JSON line with `--trace 0`.
const END_TO_END: [&str; 7] = [
    "save_ack_p50_ms",
    "save_ack_p99_ms",
    "reconcile_p50_ms",
    "reconcile_p99_ms",
    "wire_kb_per_sim_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics printed in the JSON line with `--trace 1`: those
/// every workload exercises. The report lists the rest.
const PER_LAYER: [&str; 25] = [
    "cpu_ms_per_sim_s",
    "loop.self_ms",
    "chord.route.busy_ms",
    "chord.stabilize.busy_ms",
    "chord.sync.busy_ms",
    "core.timer.busy_ms",
    "core.timer.calls",
    "core.timer.p99_us",
    "core.cmd.busy_ms",
    "core.cmd.calls",
    "p2plog.publish.busy_ms",
    "p2plog.retrieve.busy_ms",
    "kts.validate.busy_ms",
    "kts.fence.busy_ms",
    "kts.last_ts.busy_ms",
    "phase.route_ms_p50",
    "phase.master_ms_p50",
    "chord.route.msgs",
    "chord.sync.msgs",
    "p2plog.publish.msgs",
    "p2plog.retrieve.msgs",
    "kts.validate.msgs",
    "kts.fence.msgs",
    "kts.last_ts.msgs",
    "bench.trace_overhead_pct",
];

/// Extra set-ups per simulator run, on top of one per repetition.
const SETUP_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut m: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        m.insert(key.to_owned(), v);
    }
    let get = |k: &str| m.get(k).cloned().ok_or(format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

enum Workload {
    Sim(sim::Shape),
    Socket(socket::Shape),
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let workload = match args.workload.as_str() {
        "socket_service" => Workload::Socket(socket::shape()),
        name => match sim::shape(name) {
            Some(s) => Workload::Sim(s),
            None => {
                eprintln!("e2ebench: unknown workload {name}");
                std::process::exit(2);
            }
        },
    };
    let out_dir = PathBuf::from(".e2ebench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }

    // Untraced and traced repetitions alternate in a traced run, so the
    // tracing overhead is measured on the same machine state.
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        let rep = match &workload {
            Workload::Sim(s) => sim::run(s, args.seed, trace_this),
            Workload::Socket(s) => socket::run(s, args.seed, trace_this, &out_dir),
        };
        eprintln!(
            "rep {}{}: setup {:.3} s, {:.1} cpu-ms/s, {} saves, {} failures",
            plain.len() + traced.len(),
            if trace_this { " (traced)" } else { "" },
            rep.setup_s,
            rep.cpu_ms_per_s,
            rep.lat.issued,
            rep.failures.len()
        );
        let failed = !rep.failures.is_empty();
        if plain.is_empty() && !trace_this {
            // Later repetitions reuse freed memory; the first one's peak
            // is the workload's.
            peak_rss = stats::peak_rss_mb();
        }
        if trace_this {
            for r in &mut traced {
                r.spans = None; // keep the spans of the last traced repetition only
            }
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            plain.len() >= 3
        };
        if failed || (enough && start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }

    let mut failures: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let is_sim = matches!(workload, Workload::Sim(_));
    if is_sim {
        // Every repetition ran the same inputs: exact counts and simulated
        // latencies must repeat bit for bit, traced or not.
        let first = sim::fingerprint(&plain[0]);
        for (i, r) in plain.iter().enumerate().skip(1) {
            if sim::fingerprint(r) != first {
                failures.push(format!(
                    "repetition {i} differs from repetition 0 (nondeterminism)"
                ));
            }
        }
        for r in &traced {
            if r.exact != plain[0].exact {
                failures.push("traced repetition changed the exact counts".into());
            }
        }
    }

    // ---- end-to-end values ----------------------------------------------
    // Simulated latencies come from one repetition (all are identical);
    // wall-clock samples pool every untraced repetition.
    let mut lat = plain[0].lat.clone();
    if !is_sim {
        for r in &plain[1..] {
            lat.save_ack.extend_from_slice(&r.lat.save_ack);
            lat.reconcile.extend_from_slice(&r.lat.reconcile);
        }
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.lat.issued).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.lat.failed).sum();
    let mut e2e = Values::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut dist = |e2e: &mut Values, name: &str, v: &mut Vec<f64>, qs: &[(&str, f64)]| {
        counts.insert(name.to_owned(), v.len());
        for (suffix, q) in qs {
            if let Some(x) = supported(v, *q) {
                put(e2e, &format!("{name}_{suffix}_ms"), x, "ms");
            }
        }
    };
    let both = [("p50", 0.5), ("p99", 0.99)];
    dist(&mut e2e, "save_ack", &mut lat.save_ack, &both);
    dist(&mut e2e, "reconcile", &mut lat.reconcile, &both);
    dist(&mut e2e, "catchup", &mut lat.catchup, &both);
    dist(
        &mut e2e,
        "unavailable",
        &mut lat.unavailable,
        &[("p50", 0.5)],
    );
    let mut cpu: Vec<f64> = plain.iter().map(|r| r.cpu_ms_per_s).collect();
    put(&mut e2e, "cpu_ms_per_sim_s", median(&mut cpu), "ms/s");
    let mut wire: Vec<f64> = plain.iter().map(|r| r.wire_kb_per_s).collect();
    put(&mut e2e, "wire_kb_per_sim_s", median(&mut wire), "kB/s");
    let mut setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    if let Workload::Sim(shape) = &workload {
        // Set-up is short on the simulator: sample it more often.
        for _ in 0..SETUP_SAMPLES {
            let r = sim::setup_only(shape, args.seed);
            failures.extend(r.failures);
            setup.push(r.setup_s);
        }
    }
    put(&mut e2e, "setup_s", median(&mut setup), "s");
    put(&mut e2e, "peak_rss_mb", peak_rss, "MiB");
    let mut sat: Vec<f64> = plain.iter().filter_map(|r| r.saturation).collect();
    if !sat.is_empty() {
        put(&mut e2e, "saturation_acks_per_s", median(&mut sat), "1/s");
    }
    put(
        &mut e2e,
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    println!(
        "workload {} seed {} ({} untraced + {} traced repetitions, {:.1} s)",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "latency clock: {}",
        if is_sim { "simulated ms" } else { "wall ms" }
    );
    println!("saves issued {attempted}, failed {failed}");
    println!("-- end to end --");
    for (name, v) in &e2e {
        let n = name
            .rsplit_once('_')
            .and_then(|(a, _)| a.rsplit_once('_'))
            .and_then(|(base, _)| counts.get(base));
        match n {
            Some(n) => println!("{name:28} {:>12.4} {:6} n={n}", v.v, v.unit),
            None => println!("{name:28} {:>12.4} {:6}", v.v, v.unit),
        }
    }
    for (base, n) in &counts {
        if !e2e.keys().any(|k| k.starts_with(&format!("{base}_"))) {
            println!(
                "{:28} {:>12} {:6} n={n} (too few samples)",
                format!("{base}_*"),
                "-",
                "ms"
            );
        }
    }
    for note in plain.iter().chain(&traced).flat_map(|r| &r.notes).take(2) {
        println!("{note}");
    }

    // ---- per-layer values (traced run) ----------------------------------
    let mut layer = Values::new();
    if args.trace && !traced.is_empty() {
        for (k, v) in &plain[0].exact {
            layer.insert(k.clone(), *v);
        }
        let keys: Vec<String> = traced[0].layers.keys().cloned().collect();
        for k in keys {
            let mut vals: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(&k).map(|v| v.v))
                .collect();
            let unit = traced[0].layers[&k].unit;
            let name = k.strip_prefix("traced.").unwrap_or(&k).to_owned();
            // Exact (metered) counts win over handler-call counts.
            if k.starts_with("traced.") && layer.contains_key(&name) {
                continue;
            }
            put(&mut layer, &name, median(&mut vals), unit);
        }
        let mut tcpu: Vec<f64> = traced.iter().map(|r| r.cpu_ms_per_s).collect();
        let base = e2e["cpu_ms_per_sim_s"].v;
        put(
            &mut layer,
            "bench.trace_overhead_pct",
            (median(&mut tcpu) / base - 1.0) * 100.0,
            "%",
        );
        let mut tlat: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.lat.save_ack.iter().copied())
            .collect();
        if let (Some(t), Some(u)) = (
            stats::percentile(&mut tlat, 0.5),
            e2e.get("save_ack_p50_ms"),
        ) {
            put(
                &mut layer,
                "bench.trace_overhead_save_ack_p50_pct",
                (t / u.v - 1.0) * 100.0,
                "%",
            );
        }
        let mut late: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect();
        put(
            &mut layer,
            "bench.generator_late_p99_ms",
            stats::percentile(&mut late, 0.99).unwrap_or(0.0),
            "ms",
        );
        put(&mut layer, "drive_s", plain[0].drive_s, "s");
        // Untraced CPU of the same run, next to the layer busy times.
        layer.insert("cpu_ms_per_sim_s".into(), e2e["cpu_ms_per_sim_s"]);
        let get = |l: &Values, k: &str| l.get(k).map_or(0.0, |v| v.v);
        let acks = get(&layer, "acks").max(1.0);
        let ratios = [
            ("kts.validates_per_ack", get(&layer, "kts.validates") / acks),
            (
                "kts.fences_per_grant",
                get(&layer, "kts.fences") / get(&layer, "kts.grants").max(1.0),
            ),
            (
                "p2plog.gets_per_integrated",
                get(&layer, "p2plog.gets") / get(&layer, "ltr.integrated").max(1.0),
            ),
        ];
        for (k, v) in ratios {
            put(&mut layer, k, v, "ratio");
        }
        println!(
            "-- per layer (traced: median of {} repetitions; exact counts from an untraced one) --",
            traced.len()
        );
        for (name, v) in &layer {
            println!("{name:40} {:>14.4} {}", v.v, v.unit);
        }
        let path = out_dir.join(format!("{}.spans.tsv", args.workload));
        if let Some(t) = traced.last().and_then(|r| r.spans.as_ref()) {
            match t.borrow().write_tsv(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => failures.push(format!("writing spans: {e}")),
            }
        }
    }

    let (values, names): (&Values, &[&str]) = if args.trace {
        (&layer, &PER_LAYER)
    } else {
        (&e2e, &END_TO_END)
    };
    for n in names.iter().filter(|n| !values.contains_key(**n)) {
        failures.push(format!("no value for {n} (too few samples)"));
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let correct = failures.is_empty();
    let metrics = names
        .iter()
        .map(|n| {
            let v = values.get(*n).copied().unwrap_or(Value {
                v: f64::NAN,
                unit: "",
            });
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(v.v),
                v.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
