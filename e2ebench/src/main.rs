//! Wall-clock benchmark of the RAIN cluster request path.
//!
//! ```text
//! e2ebench --workload <ingest|read_cold|mixed_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then, as the last line of standard output,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. A wrong
//! byte read back ends the run with exit code 1 and no JSON.

mod layers;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;

use workload::{Bench, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <ingest|read_cold|mixed_hot> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => trace = value.parse::<u8>().ok().filter(|&t| t <= 1).map(|t| t == 1),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed <u64> is required")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds <positive integer> is required")),
        trace: trace.unwrap_or_else(|| usage("--trace <0|1> is required")),
    }
}

fn main() {
    let args = parse_args();
    let plan = Plan::new(args.workload, args.seconds);
    let root = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let (bench, layer_metrics) = match measure(plan, &args, &root) {
        Ok(v) => v,
        Err(wrong) => {
            let _ = std::fs::remove_dir_all(&root);
            eprintln!("e2ebench: WRONG OUTPUT: {wrong}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    let metrics = if args.trace {
        layer_metrics
    } else {
        bench.m.end_to_end(args.workload)
    };
    let acct = bench.m.acct;
    println!(
        "workload {} seed {} ({:?})",
        args.workload.name(),
        args.seed,
        plan
    );
    for (class, t) in acct.classes() {
        println!(
            "ops.{class:<14} attempted {:>9} failed {}",
            t.attempted, t.failed
        );
    }
    let (put, del, get) = bench.m.pooled(args.workload);
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "calls", "n", "wall_p50", "wall_p99", "wall_p999", "cpu_p50", "wall_s"
    );
    let pooled = [
        ("pooled.put", &put),
        ("pooled.delete", &del),
        ("pooled.get", &get),
    ];
    for (name, s) in bench.m.collections().into_iter().chain(pooled) {
        if !s.is_empty() {
            println!(
                "{name:<16} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.4}",
                s.len(),
                s.p50_us(),
                s.quantile_us(0.99),
                s.quantile_us(0.999),
                s.cpu_p50_us(),
                s.total_s()
            );
        }
    }
    println!(
        "wall ops_per_s (main phase, not gated) {:.1}",
        bench.m.ops_per_s()
    );
    for (name, unit, value) in &metrics {
        println!("{name:<44} {value:>14.4} {unit}");
    }
    let total = acct.total();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        body.join(", ")
    );
}

/// Run the workload. With tracing on, the set-up and main phase first run
/// once untraced (the base of `obs.traced_ops_ratio`), then the whole
/// workload runs traced and the per-layer metrics are taken from it.
fn measure(
    plan: Plan,
    args: &Args,
    root: &std::path::Path,
) -> Result<(Bench, Vec<layers::Metric>), workload::Wrong> {
    if !args.trace {
        let mut bench = Bench::new(plan, args.seed, root, None);
        bench.run()?;
        bench.cleanup();
        return Ok((bench, Vec::new()));
    }
    let mut base = Bench::new(plan, args.seed, &root.join("untraced"), None);
    base.setup()?;
    base.main_phase()?;
    let untraced = base.m.ops_per_cpu_s();
    base.cleanup();
    let mut bench = Bench::new(
        plan,
        args.seed,
        &root.join("traced"),
        Some(trace::Trace::new()),
    );
    bench.run()?;
    let metrics = layers::per_layer(&mut bench, untraced)?;
    bench.cleanup();
    Ok((bench, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, untraced and traced, with every check
    /// of its outputs: it must finish, fail no operation, and print every
    /// metric as a finite number.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for w in [Workload::Ingest, Workload::ReadCold, Workload::MixedHot] {
            let plan = Plan::smoke(w);
            let root = PathBuf::from(".bench_work").join(format!("smoke-{}", w.name()));
            let mut bench = Bench::new(plan, 7, &root, None);
            bench.run().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            bench.cleanup();
            let acct = bench.m.acct.total();
            assert!(acct.attempted > 0, "{}", w.name());
            assert_eq!(acct.failed, 0, "{}", w.name());
            for (name, _, v) in bench.m.end_to_end(w) {
                assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name());
            }

            let mut traced = Bench::new(plan, 7, &root, Some(trace::Trace::new()));
            traced
                .run()
                .unwrap_or_else(|e| panic!("{} traced: {e}", w.name()));
            let layers = layers::per_layer(&mut traced, 1.0)
                .unwrap_or_else(|e| panic!("{} layers: {e}", w.name()));
            traced.cleanup();
            for (name, _, v) in layers {
                assert!(v.is_finite(), "{} {name} = {v}", w.name());
            }
        }
    }

    /// The oracle catches a wrong byte: a ledger that expects another
    /// version than the store holds ends the run with `Wrong`.
    #[test]
    fn a_wrong_byte_ends_the_run() {
        let plan = Plan::smoke(Workload::ReadCold);
        let root = PathBuf::from(".bench_work").join("smoke-wrong");
        let mut bench = Bench::new(plan, 9, &root, None);
        bench.setup().expect("setup");
        let id = bench.ledger.live()[0];
        let e = bench.ledger.entry(id);
        bench.ledger.put(id, e.version + 1, e.len as usize);
        let r = bench.sweep(workload::Phase::Sweep, &[]);
        bench.cleanup();
        assert!(r.is_err(), "a stale ledger entry must be caught");
    }

    /// `mixed_hot` is sized so that its hot set stays inside the decode
    /// cache: most of its main-phase lookups of sealed groups must hit.
    /// The hot set, mix and compaction cadence are the workload's own; the
    /// cold population and the later phases are cut down.
    #[test]
    fn mixed_hot_reads_mostly_hit_the_decode_cache() {
        let mut plan = Plan::new(Workload::MixedHot, 2);
        plan.preload = 4 * plan.hot_keys;
        plan.churn_puts = 40;
        plan.degraded_gets = 100;
        plan.repair_rounds = 1;
        let root = PathBuf::from(".bench_work").join("smoke-hot");
        let mut bench = Bench::new(plan, 7, &root, Some(trace::Trace::new()));
        bench.run().expect("mixed_hot");
        let layers = layers::per_layer(&mut bench, 1.0).expect("layers");
        bench.cleanup();
        let (_, _, hit) = layers
            .into_iter()
            .find(|(name, _, _)| *name == "storage.group.cache_hit_ratio")
            .expect("the traced run reports the hit ratio");
        assert!(hit > 0.75, "decode-cache hit ratio {hit}");
    }

    /// The post-repair sweep proves the rebuilt symbols serve: nodes
    /// replaced but never repaired leave fewer than `k` symbols once the
    /// sweep's own two nodes fail, and the run must end there.
    #[test]
    fn an_unrepaired_node_ends_the_post_repair_sweep() {
        let plan = Plan::smoke(Workload::ReadCold);
        let root = PathBuf::from(".bench_work").join("smoke-unrepaired");
        let mut bench = Bench::new(plan, 9, &root, None);
        bench.setup().expect("setup");
        let cluster = bench.cluster.as_mut().expect("cluster is up");
        for s in workload::SHARDS {
            let shard = cluster.shard_mut(s).expect("member shard");
            for n in workload::DEGRADED_NODES {
                shard
                    .replace_node(rain_sim::NodeId(n))
                    .expect("replace_node");
            }
        }
        let r = bench.sweep(workload::Phase::PostRepair, &workload::SWEEP_FAILED_NODES);
        bench.cleanup();
        let e = r.expect_err("a sweep over unrepaired nodes must end the run");
        assert!(e.0.contains("failed to read"), "{e}");
    }
}
