//! Multi-process service smoke test: `tricount serve` as 4 real OS
//! processes over Unix-domain sockets, driven through `tc_serve::Client`
//! with a sustained mixed workload — >100 incremental update batches
//! interleaved with count / support / truss / stats / metrics queries —
//! then cross-checked against the offline `tricount count` of the final
//! edge state. One run repeats under seeded send delays on every rank
//! (`--chaos`): every answer must stay exact. Rank logs land in
//! `$CARGO_TARGET_TMPDIR/serve-smoke/` for CI artifact upload.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use tc_graph::{Csr, EdgeList};
use tc_metrics::json::Value;
use tc_serve::{Client, Request};

fn tricount() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tricount"))
}

fn log_dir(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-smoke").join(label);
    std::fs::create_dir_all(&dir).expect("create log dir");
    dir
}

fn endpoints(p: usize, label: &str) -> Vec<String> {
    let pid = std::process::id();
    (0..p)
        .map(|r| {
            std::env::temp_dir()
                .join(format!("tcs-{pid}-{label}-{r}.sock"))
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Spawns the 4-process fleet; rank logs go to the artifact dir.
fn spawn_fleet(label: &str, frontend: &Path, extra: &[&str]) -> Vec<Child> {
    let p = 4usize;
    let peers = endpoints(p, label).join(",");
    let logs = log_dir(label);
    (0..p)
        .map(|rank| {
            let out = File::create(logs.join(format!("rank{rank}.out.log"))).expect("log file");
            let err = File::create(logs.join(format!("rank{rank}.err.log"))).expect("log file");
            tricount()
                .arg("serve")
                .arg("g500-s6")
                .args(["--listen", &frontend.to_string_lossy()])
                .args(["--rank", &rank.to_string(), "--peers", &peers])
                .args(["--flush-ms", "10000", "--tick-ms", "500"])
                .args(extra)
                .stdout(Stdio::from(out))
                .stderr(Stdio::from(err))
                .spawn()
                .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect()
}

fn rank_log(label: &str, rank: usize) -> String {
    let logs = log_dir(label);
    let read = |n: &str| std::fs::read_to_string(logs.join(n)).unwrap_or_default();
    format!(
        "--- rank{rank}.out ---\n{}--- rank{rank}.err ---\n{}",
        read(&format!("rank{rank}.out.log")),
        read(&format!("rank{rank}.err.log"))
    )
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("u64 field '{key}' in {v:?}"))
}

/// Serial oracle over the reference edge set.
fn serial_triangles(n: usize, edges: &BTreeSet<(u32, u32)>) -> u64 {
    let el = EdgeList::new(n, edges.iter().copied().collect()).simplify();
    let csr = Csr::from_edge_list(&el);
    let mut t = 0u64;
    for &(u, v) in edges {
        let (nu, nv) = (csr.neighbors(u), csr.neighbors(v));
        t += nu.iter().filter(|&&w| w > v && nv.binary_search(&w).is_ok()).count() as u64;
    }
    t
}

/// The same graph every fleet process loads (`g500-s6`, default seed).
fn initial_edges() -> (usize, BTreeSet<(u32, u32)>) {
    let el = tc_gen::Preset::parse("g500-s6").expect("known preset").build(tc_gen::DEFAULT_SEED);
    (el.num_vertices, el.edges.iter().copied().collect())
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Offline cross-check: write the final edge state to a file and count
/// it with `tricount count`.
fn offline_count(label: &str, n: usize, edges: &BTreeSet<(u32, u32)>) -> u64 {
    let el = EdgeList::new(n, edges.iter().copied().collect()).simplify();
    let path = log_dir(label).join("final-edges.txt");
    tc_graph::io::write_text_edges(&el, File::create(&path).expect("edge file"))
        .expect("write final edge state");
    let out = tricount()
        .args(["count", &path.to_string_lossy(), "--ranks", "4"])
        .output()
        .expect("spawn offline count");
    assert_eq!(
        out.status.code(),
        Some(0),
        "offline count failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| {
            l.strip_prefix("triangles")?.trim_start().strip_prefix(':')?.trim().parse().ok()
        })
        .expect("no triangle count in offline output")
}

/// Drives the full mixed workload against a fleet and verifies every
/// checkpoint, the offline cross-check, and a clean shutdown.
fn drive(label: &str, extra: &[&str], rounds: usize) {
    let frontend = std::env::temp_dir().join(format!("tcq-{}-{label}.sock", std::process::id()));
    // Every rank gets --json but only rank 0 appends the run record.
    let report_path = log_dir(label).join("report.json");
    let _ = std::fs::remove_file(&report_path);
    let mut extra: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
    extra.extend(["--json".to_string(), report_path.to_string_lossy().into_owned()]);
    let extra: Vec<&str> = extra.iter().map(String::as_str).collect();
    let children = spawn_fleet(label, &frontend, &extra);
    let mut client = Client::connect_retry(&frontend, Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("frontend never came up: {e}\n{}", rank_log(label, 0)));

    let (n, mut reference) = initial_edges();
    let reply = client.request(&Request::Count).expect("cold count");
    assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));

    let mut rng = Lcg(0xC0FFEE ^ rounds as u64);
    for round in 0..rounds {
        let mut insert = Vec::new();
        let mut delete = Vec::new();
        for _ in 0..(1 + rng.next() % 6) {
            if rng.next() % 3 == 0 && !reference.is_empty() {
                let idx = rng.next() as usize % reference.len();
                delete.push(*reference.iter().nth(idx).expect("index in range"));
            } else {
                let (u, v) = ((rng.next() % n as u64) as u32, (rng.next() % n as u64) as u32);
                if u != v {
                    insert.push((u.min(v), u.max(v)));
                }
            }
        }
        if insert.is_empty() && delete.is_empty() {
            insert.push((0, 1 + (round as u32 % 9)));
        }
        for &e in &insert {
            reference.insert(e);
        }
        for &e in &delete {
            reference.remove(&e);
        }
        client.request(&Request::Update { insert, delete }).expect("update accepted");
        // The count's read barrier applies the buffer as one batch and
        // must land exactly on the serial oracle, every round.
        let reply = client.request(&Request::Count).expect("count after update");
        assert_eq!(
            u64_field(&reply, "triangles"),
            serial_triangles(n, &reference),
            "served count drifted at round {round} ({label})"
        );
        // Interleave the other read queries across the stream.
        match round % 10 {
            3 => {
                let &(u, v) = reference.iter().next().expect("edges remain");
                let reply = client.request(&Request::Support { u, v }).expect("support");
                assert_eq!(reply.get("present"), Some(&Value::Bool(true)));
            }
            5 => {
                let reply = client.request(&Request::Truss { k: 3 }).expect("truss");
                assert!(reply.get("edges").and_then(Value::as_arr).is_some());
            }
            7 => {
                let reply = client.request(&Request::Stats).expect("stats");
                assert_eq!(u64_field(&reply, "edges"), reference.len() as u64);
                assert_eq!(u64_field(&reply, "full_recounts"), 1, "hot path recounted!");
            }
            9 => {
                client.request(&Request::Metrics).expect("metrics");
            }
            _ => {}
        }
    }

    // Checkpoint: the incremental count agrees with the offline 2D
    // count of the final edge state, and the cold start stayed the
    // only full recount across >targeted batches.
    let stats = client.request(&Request::Stats).expect("final stats");
    assert_eq!(u64_field(&stats, "batches"), rounds as u64);
    assert_eq!(u64_field(&stats, "full_recounts"), 1);
    let served = u64_field(&client.request(&Request::Count).expect("final count"), "triangles");
    assert_eq!(served, offline_count(label, n, &reference), "offline cross-check ({label})");

    client.request(&Request::Shutdown).expect("shutdown");
    for (rank, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("wait for rank").status;
        assert_eq!(status.code(), Some(0), "rank {rank} failed:\n{}", rank_log(label, rank));
    }
    // Every process prints the replicated final count.
    for rank in 0..4 {
        let log = rank_log(label, rank);
        assert!(
            log.contains(&format!("triangles     : {served}")),
            "rank {rank} disagrees on the final count:\n{log}"
        );
    }
    assert!(rank_log(label, 0).contains("full recounts : 1"));

    // Rank 0 emitted exactly one tc-run-v2 record for the whole service
    // lifetime: the serve.* counters carry the sustained workload and
    // the triangle anchor matches the final served count.
    let text = std::fs::read_to_string(&report_path).expect("run-record report written");
    assert!(text.contains("\"schema\":\"tc-run-v2\""), "serve report uses v2 schema:\n{text}");
    let recs = tc_metrics::RunRecord::parse_jsonl(&text).expect("parse tc-run-v2 report");
    assert_eq!(recs.len(), 1, "one record per service lifetime");
    let rec = &recs[0];
    assert_eq!(rec.config, "serve");
    assert_eq!(rec.ranks, 4);
    assert_eq!(rec.triangles, served);
    assert_eq!(rec.counters.get("serve.batches_applied"), Some(&(rounds as u64)));
    assert_eq!(rec.counters.get("serve.full_recounts"), Some(&1));
    assert!(rec.counters.get("serve.queries_count").is_some_and(|&v| v > rounds as u64));
}

#[test]
fn four_process_fleet_sustains_mixed_workload() {
    drive("clean", &[], 110);
}

#[test]
fn four_process_fleet_stays_exact_under_chaos() {
    drive("chaos", &["--chaos", "42"], 30);
}

#[test]
fn every_shutdown_gets_its_reply_line() {
    // The process-level face of the shutdown-reply race (see
    // tc-serve's `shutdown_reply_is_on_the_wire_before_the_service_
    // returns`): launch a real `tricount serve`, ask it to stop, and
    // require the reply line — not end-of-file — every single time.
    let sock = std::env::temp_dir().join(format!("tcs-{}-shutdown.sock", std::process::id()));
    for round in 0..20 {
        let mut child = tricount()
            .arg("serve")
            .arg("g500-s6")
            .args(["--listen", &sock.to_string_lossy()])
            .args(["--ranks", "4"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tricount serve");
        let mut client =
            Client::connect_retry(&sock, Duration::from_secs(60)).expect("service comes up");
        let reply = client.request(&Request::Shutdown);
        let status = child.wait().expect("serve exits");
        assert!(status.success(), "round {round}: serve exited {status}");
        let reply = reply.unwrap_or_else(|e| panic!("round {round}: shutdown got no reply: {e}"));
        assert_eq!(reply.get("stopping"), Some(&Value::Bool(true)), "round {round}: {reply:?}");
    }
}
