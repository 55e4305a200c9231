//! The traced pass: per-layer numbers for one workload.
//!
//! Three sources, none of them an edit to the program: the probe
//! binary's spans around the crates' public functions, this driver's
//! own spans around `tricount` commands and serve requests, and the
//! counters the program already writes with `--metrics FILE` and
//! `serve --json FILE`. End-to-end numbers are never taken from here;
//! `trace.overhead_pct` says what switching the program's own
//! observation on costs.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::proc::{self, Group};
use crate::report::Metric;
use crate::script::{self, Expect, Op, Request};
use crate::stats::{self, Summary};
use crate::workload::{self, Ctx, Kind, Setup, Workload, WORKLOADS};

/// Every per-layer metric, in report order: (name, unit). The traced
/// pass of every workload prints all of them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("gen.build_s", "s"),
    ("graph.io_read_s", "s"),
    ("graph.io_read_mb_per_s", "MB/s"),
    ("graph.csr_build_s", "s"),
    ("cli.spawn_s", "s"),
    ("cli.load_s", "s"),
    ("core.preprocess.wall_s", "s"),
    ("core.preprocess.cpu_s", "s"),
    ("core.preprocess.blocked_s", "s"),
    ("core.preprocess.msgs", "count"),
    ("core.preprocess.bytes", "bytes"),
    ("core.cannon.wall_s", "s"),
    ("core.cannon.cpu_s", "s"),
    ("core.cannon.blocked_s", "s"),
    ("core.cannon.msgs", "count"),
    ("core.cannon.bytes", "bytes"),
    ("core.cannon.imbalance", "ratio"),
    ("core.count.tasks", "count"),
    ("core.count.probes", "count"),
    ("core.count.lookups", "count"),
    ("core.count.p1_s", "s"),
    ("core.intersect.pairs_per_s", "1/s"),
    ("baselines.serial_s", "s"),
    ("mps.comm.msg_overhead_ns", "ns"),
    ("mps.comm.barrier_us", "us"),
    ("mps.comm.alltoallv_small_us", "us"),
    ("mps.comm.alltoallv_large_mb_per_s", "MB/s"),
    ("mps.grid.shift_mb_per_s", "MB/s"),
    ("mps.socket.connect_s", "s"),
    ("mps.socket.pingpong_us", "us"),
    ("mps.socket.stream_mb_per_s", "MB/s"),
    ("mps.rel.frames_sent", "count"),
    ("mps.rel.retransmits", "count"),
    ("mps.fabric.wire_msgs_sent", "count"),
    ("mps.fabric.wire_bytes_sent", "bytes"),
    ("mps.fabric.wire_overhead_pct", "%"),
    ("mps.socket.overhead_s", "s"),
    ("serve.frontend.count_p50_us", "us"),
    ("serve.support_p50_us", "us"),
    ("serve.update_p50_us", "us"),
    ("serve.flush_p50_us", "us"),
    ("serve.service.support_p50_us", "us"),
    ("serve.rejected_queries", "count"),
    ("serve.engine.cold_start_s", "s"),
    ("serve.engine.apply_batch_us", "us"),
    ("serve.engine.support_us", "us"),
    ("serve.batches_applied", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.delta_intersections", "count"),
    ("trace.overhead_pct", "%"),
];

/// Serve and socket rows are always taken at the fleet shape of the
/// serve workloads, whatever the workload's own rank count.
const FLEET_RANKS: usize = 4;
/// Requests of each kind in the serve probe script.
const PROBE_READS: usize = 400;
/// `update` requests between two `flush`es of the serve probe script:
/// 16 × 8 ops stays under the service's 256-op batch limit, so every
/// batch is applied by the explicit flush and batch counts repeat.
const PROBE_UPDATES_PER_FLUSH: usize = 16;
const PROBE_FLUSHES: usize = 32;
/// Launches (or seconds of requests) on each side of the tracing
/// overhead comparison.
const OVERHEAD_LAUNCHES: usize = 2;
const OVERHEAD_SECONDS: f64 = 2.0;

type Values = HashMap<&'static str, Summary>;

fn put(values: &mut Values, name: &str, summary: Summary) {
    match PER_LAYER.iter().find(|(n, _)| *n == name) {
        Some((n, _)) => {
            values.insert(n, summary);
        }
        None => eprintln!("warning: {name} is not a per-layer metric of this benchmark; dropped"),
    }
}

/// The number after the first `pattern` in `text`.
fn scan_u64(text: &str, pattern: &str) -> Option<u64> {
    let rest = &text[text.find(pattern)? + pattern.len()..];
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// The `[lo, hi]` nanosecond bracket of `op`'s median in a `stats`
/// reply (`"support":{"n":400,"p50":[65536,131071],…`).
fn server_p50_ns(stats_reply: &str, op: &str) -> Option<(u64, u64)> {
    let entry = &stats_reply[stats_reply.find(&format!("\"{op}\":{{\"n\":"))?..];
    let bracket = &entry[entry.find("\"p50\":[")? + 7..];
    Some((scan_u64(bracket, "")?, scan_u64(bracket, ",")?))
}

/// A counter of a `--metrics` snapshot, summed over the given files
/// (one per rank process).
fn snapshot_counter(files: &[String], name: &str) -> Option<u64> {
    let pattern = format!("\"{name}\":{{\"type\":\"counter\",\"value\":");
    files.iter().map(|text| scan_u64(text, &pattern)).sum()
}

/// Runs the probe binary on the workload's graph and takes over its
/// `metric` lines; its triangle count is held against the oracle.
fn layer_probes(ctx: &mut Ctx, w: &Workload, setup: &Setup, values: &mut Values) {
    ctx.attempted += 1;
    let args: Vec<String> = [
        "layers",
        "--graph",
        &setup.graph_path.display().to_string(),
        "--preset",
        w.preset,
        "--seed",
        &ctx.seed.to_string(),
        "--ranks",
        &w.ranks.to_string(),
        "--dir",
        &ctx.dir.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let stem = ctx.log_stem("probe");
    let deadline = ctx.launch_deadline();
    let exit = match Group::spawn(&ctx.probe, &[args], &stem, "check", ctx.all_cpus) {
        Ok(group) => group.wait(deadline).remove(0),
        Err(e) => return ctx.fail(1, format!("cannot spawn {}: {e}", ctx.probe.display()), &[]),
    };
    if !exit.ok {
        return ctx.fail(1, "the layer probes failed".into(), std::slice::from_ref(&exit));
    }
    let checked =
        exit.stdout.iter().find_map(|l| l.strip_prefix("check triangles ")?.parse::<u64>().ok());
    if checked != Some(setup.triangles) {
        let what = format!(
            "the layer probes counted {checked:?} triangles, oracle says {}",
            setup.triangles
        );
        return ctx.fail(1, what, std::slice::from_ref(&exit));
    }
    for line in &exit.stdout {
        let mut words = line.split_whitespace();
        if words.next() != Some("metric") {
            continue;
        }
        if let (Some(name), Some(_unit), Some(Ok(value))) =
            (words.next(), words.next(), words.next().map(str::parse::<f64>))
        {
            put(values, name, Summary::single(value));
        }
    }
}

/// `cli.*`: what every command pays before it does any work.
fn cli_probes(ctx: &mut Ctx, setup: &Setup, values: &mut Values) {
    let graph = setup.graph_path.display().to_string();
    for (name, args, repeats) in [
        ("cli.spawn_s", vec!["help".to_string()], 5),
        ("cli.load_s", vec!["info".to_string(), graph], 3),
    ] {
        let mut secs = Vec::new();
        for _ in 0..repeats {
            ctx.attempted += 1;
            let stem = ctx.log_stem("cli");
            let exit = proc::run_once(
                &ctx.tricount,
                &args,
                &stem,
                std::time::Duration::from_secs(60),
                ctx.all_cpus,
            );
            if exit.ok {
                secs.push(exit.wall.as_secs_f64());
            } else {
                ctx.fail(1, format!("tricount {} failed", args[0]), std::slice::from_ref(&exit));
            }
        }
        if !secs.is_empty() {
            put(values, name, Summary::of(&secs));
        }
    }
}

fn median_wall(launches: &[workload::Launch]) -> Option<f64> {
    median_of(stats::sorted(launches.iter().map(|l| l.wall).collect()))
}

/// `mps.rel.*`, `mps.fabric.*`, `mps.socket.overhead_s`: the socket
/// workload's graph counted by four processes over the wire and by four
/// threads in one process. The difference is what the wire layers cost;
/// the counters come from the rank processes' own `--metrics` files.
fn wire_probes(ctx: &mut Ctx, w: &Workload, setup: &Setup, values: &mut Values) -> Option<()> {
    let socket =
        WORKLOADS.iter().find(|w| w.kind == Kind::Socket).expect("a socket workload exists");
    let own;
    let setup = if w.preset == socket.preset {
        setup
    } else {
        own = match workload::setup_once(ctx, socket) {
            Ok(s) => s,
            Err(e) => {
                ctx.attempted += 1;
                ctx.fail(1, format!("set-up of the wire probes failed: {e}"), &[]);
                return None;
            }
        };
        &own
    };
    let mut threads = Vec::new();
    let mut processes = Vec::new();
    for _ in 0..3 {
        threads.push(workload::launch_count(
            ctx,
            Kind::Count,
            FLEET_RANKS,
            setup,
            &workload::no_extra,
        )?);
        processes.push(workload::launch_count(
            ctx,
            Kind::Socket,
            FLEET_RANKS,
            setup,
            &workload::no_extra,
        )?);
    }
    put(
        values,
        "mps.socket.overhead_s",
        Summary::single(median_wall(&processes)? - median_wall(&threads)?),
    );

    let files: Vec<PathBuf> =
        (0..FLEET_RANKS).map(|r| ctx.dir.join(format!("wire-metrics-{r}.json"))).collect();
    let flag = |r: usize| vec!["--metrics".to_string(), files[r].display().to_string()];
    workload::launch_count(ctx, Kind::Socket, FLEET_RANKS, setup, &flag)?;
    let texts: Vec<String> =
        files.iter().map(|f| std::fs::read_to_string(f).unwrap_or_default()).collect();
    let counter = |name: &str| snapshot_counter(&texts, name);
    // These four metrics carry the program's own counter names.
    for name in [
        "mps.rel.frames_sent",
        "mps.rel.retransmits",
        "mps.fabric.wire_msgs_sent",
        "mps.fabric.wire_bytes_sent",
    ] {
        put(values, name, Summary::single(counter(name)? as f64));
    }
    let (wire, payload) =
        (counter("mps.fabric.wire_bytes_sent")? as f64, counter("mps.bytes_sent")? as f64);
    put(
        values,
        "mps.fabric.wire_overhead_pct",
        Summary::single(100.0 * (wire - payload) / payload),
    );
    Some(())
}

/// The serve probe script, one connection: `count`s with nothing
/// pending (answered by the frontend alone), `support` reads on
/// existing edges, then rounds of updates closed by an explicit flush.
fn serve_probe_script(ctx: &Ctx, setup: &Setup) -> Vec<Request> {
    let plain = |op, line: String, expect| Request { op, line, expect, edits: Vec::new() };
    let mut rng = script::Rng::new(ctx.seed, 0x9e0b_e000);
    let mut out = Vec::new();
    for _ in 0..PROBE_READS {
        out.push(plain(
            Op::Count,
            "{\"op\":\"count\"}\n".into(),
            Expect::Triangles(setup.triangles),
        ));
    }
    for _ in 0..PROBE_READS {
        let (u, v) = setup.graph.edges[rng.below(setup.graph.edges.len())];
        out.push(plain(
            Op::Support,
            format!("{{\"op\":\"support\",\"u\":{u},\"v\":{v}}}\n"),
            Expect::Ok,
        ));
    }
    let mut updates = script::write_script(ctx.seed, 0, 1, &setup.graph)
        .into_iter()
        .filter(|r| r.op == Op::Update);
    for _ in 0..PROBE_FLUSHES {
        out.extend(updates.by_ref().take(PROBE_UPDATES_PER_FLUSH));
        out.push(plain(Op::Flush, "{\"op\":\"flush\"}\n".into(), Expect::Ok));
    }
    out
}

fn median_of(sorted: Vec<f64>) -> Option<f64> {
    (!sorted.is_empty()).then(|| stats::median(&sorted))
}

/// `serve.*` rows: a four-rank fleet on the workload's graph with the
/// program's own metrics on, driven by the probe script.
fn serve_probes(ctx: &mut Ctx, setup: &Setup, values: &mut Values) -> Option<()> {
    let record = ctx.dir.join("serve-probe-record.json");
    let flags = vec![
        "--metrics".to_string(),
        ctx.dir.join("serve-probe-metrics.json").display().to_string(),
        "--json".to_string(),
        record.display().to_string(),
    ];
    let script = vec![serve_probe_script(ctx, setup)];
    let (fleet, mut client, _) = workload::start_fleet(ctx, setup, FLEET_RANKS, &flags)?;
    let (fleet, loops) = fleet.drive(ctx, &script, 0.0, Some(script[0].len()))?;
    // The server's own histogram of the same support queries: client
    // minus server is the frontend's share.
    let stats_reply =
        client.request("{\"op\":\"stats\"}\n").map(|r| r.to_string()).unwrap_or_default();
    let final_state = workload::FinalState::ask(&mut client);
    fleet.shutdown(ctx, &mut client)?;
    final_state.check(ctx, &setup.graph, setup.triangles, &script, &loops.sent());

    for (name, op) in [
        ("serve.frontend.count_p50_us", Op::Count),
        ("serve.support_p50_us", Op::Support),
        ("serve.update_p50_us", Op::Update),
        ("serve.flush_p50_us", Op::Flush),
    ] {
        put(values, name, Summary::single(median_of(loops.latencies_us(Some(op)))?));
    }
    let (lo, hi) = server_p50_ns(&stats_reply, "support")?;
    put(values, "serve.service.support_p50_us", Summary::single((lo + hi) as f64 / 2.0 / 1e3));

    let text = std::fs::read_to_string(&record).unwrap_or_default();
    let counter = |name: &str| scan_u64(&text, &format!("\"{name}\":"));
    put(
        values,
        "serve.rejected_queries",
        Summary::single(counter("serve.rejected_queries")? as f64),
    );
    put(values, "serve.batches_applied", Summary::single(counter("serve.batches_applied")? as f64));
    put(
        values,
        "serve.delta_intersections",
        Summary::single(counter("serve.delta_intersections")? as f64),
    );
    let mean =
        counter("serve.batch_size.sum")? as f64 / counter("serve.batch_size.count")?.max(1) as f64;
    put(values, "serve.batch_size_mean", Summary::single(mean));
    Some(())
}

/// `trace.overhead_pct`: the workload's own operation with the
/// program's tracing and metrics switched on, against the same
/// operation with them off, both measured here and now.
fn tracing_overhead(ctx: &mut Ctx, w: &Workload, setup: &Setup, values: &mut Values) -> Option<()> {
    let dir = ctx.dir.clone();
    let (plain, observed) = if w.is_serve() {
        let mut p50 = Vec::new();
        for flags in [
            Vec::new(),
            vec![
                "--metrics".to_string(),
                dir.join("overhead-metrics.json").display().to_string(),
                "--json".to_string(),
                dir.join("overhead-record.json").display().to_string(),
            ],
        ] {
            let (fleet, mut client, _) = workload::start_fleet(ctx, setup, w.ranks, &flags)?;
            let (fleet, loops) = fleet.drive(ctx, &setup.scripts, OVERHEAD_SECONDS, None)?;
            fleet.shutdown(ctx, &mut client)?;
            p50.push(median_of(loops.latencies_us(None))?);
        }
        (p50[0], p50[1])
    } else {
        let flags = |r: usize| {
            vec![
                "--metrics".to_string(),
                dir.join(format!("overhead-metrics-{r}.json")).display().to_string(),
                "--trace".to_string(),
                dir.join(format!("overhead-trace-{r}.json")).display().to_string(),
            ]
        };
        let (mut plain, mut observed) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_LAUNCHES {
            plain.push(workload::launch_count(ctx, w.kind, w.ranks, setup, &workload::no_extra)?);
            observed.push(workload::launch_count(ctx, w.kind, w.ranks, setup, &flags)?);
        }
        (median_wall(&plain)?, median_wall(&observed)?)
    };
    put(values, "trace.overhead_pct", Summary::single(100.0 * (observed / plain - 1.0)));
    Some(())
}

/// The whole traced pass. A probe that fails is accounted in `ctx`;
/// a metric it would have produced is then missing, which fails the
/// run, because the contract wants every per-layer metric.
pub fn measure(ctx: &mut Ctx, w: &Workload, setup: &Setup) -> Option<Vec<Metric>> {
    let mut values = Values::new();
    layer_probes(ctx, w, setup, &mut values);
    cli_probes(ctx, setup, &mut values);
    let _ = wire_probes(ctx, w, setup, &mut values);
    let _ = serve_probes(ctx, setup, &mut values);
    let _ = tracing_overhead(ctx, w, setup, &mut values);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match values.get(name) {
            Some(summary) => metrics.push(Metric::new(name, unit, *summary)),
            None => {
                ctx.attempted += 1;
                ctx.fail(1, format!("per-layer metric {name} could not be measured"), &[]);
            }
        }
    }
    (metrics.len() == PER_LAYER.len()).then_some(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_counters_out_of_program_output() {
        let snap =
            "{\"ranks\":{\"1\":{\"mps.bytes_sent\":{\"type\":\"counter\",\"value\":9877396},\
                    \"mps.rel.frames_sent\":{\"type\":\"counter\",\"value\":34}}}}";
        let files = vec![snap.to_string(), snap.to_string()];
        assert_eq!(snapshot_counter(&files, "mps.rel.frames_sent"), Some(68));
        assert_eq!(snapshot_counter(&files, "mps.rel.retransmits"), None);
        let record =
            "{\"counters\":{\"serve.batch_size.count\":4273,\"serve.batch_size.sum\":112431}}";
        assert_eq!(scan_u64(record, "\"serve.batch_size.sum\":"), Some(112431));
        let stats = "{\"ok\":true,\"query_latency_ns\":{\"count\":{\"n\":1,\"p50\":[5821,5821],\"p99\":[5821,5821]},\
                     \"support\":{\"n\":5944,\"p50\":[131072,262143],\"p99\":[524288,1048575]}}}";
        assert_eq!(server_p50_ns(stats, "support"), Some((131072, 262143)));
        assert_eq!(server_p50_ns(stats, "truss"), None);
    }

    #[test]
    fn per_layer_names_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
