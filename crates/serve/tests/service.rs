//! End-to-end service tests on the in-process fabric: a rank fleet
//! runs [`tc_serve::serve_rank`] on a background thread while the
//! test drives the Unix socket with [`tc_serve::Client`] — streaming
//! update batches with read-your-writes count checks, analytic
//! queries against serial oracles, typed protocol errors, admission
//! control, pipelining and backpressure on one connection, fairness
//! between connections, and a clean shutdown.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tc_graph::{Csr, EdgeList};
use tc_metrics::json::Value;
use tc_metrics::MetricsSession;
use tc_mps::{Universe, UniverseConfig};
use tc_serve::{serve_rank, Client, Request, ServeConfig};

fn sock_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tc-serve-{}-{label}.sock", std::process::id()))
}

fn ref_edge_list(n: usize, edges: &BTreeSet<(u32, u32)>) -> EdgeList {
    EdgeList::new(n, edges.iter().copied().collect()).simplify()
}

/// Serial oracle: triangles of the reference edge set.
fn serial_triangles(n: usize, edges: &BTreeSet<(u32, u32)>) -> u64 {
    let csr = Csr::from_edge_list(&ref_edge_list(n, edges));
    let mut t = 0u64;
    for &(u, v) in edges {
        let (nu, nv) = (csr.neighbors(u), csr.neighbors(v));
        t += nu.iter().filter(|&&w| w > v && nv.binary_search(&w).is_ok()).count() as u64;
    }
    t
}

/// Serial oracle: common-neighbour count of one pair (present or not).
fn serial_support(n: usize, edges: &BTreeSet<(u32, u32)>, u: u32, v: u32) -> u64 {
    let csr = Csr::from_edge_list(&ref_edge_list(n, edges));
    let (nu, nv) = (csr.neighbors(u), csr.neighbors(v));
    nu.iter().filter(|w| nv.binary_search(w).is_ok()).count() as u64
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("u64 field '{key}' in {v:?}"))
}

/// Extracts rank 0's value of one counter from a Prometheus exposition.
fn prom_counter0(text: &str, name: &str) -> u64 {
    let needle = format!("{name}{{rank=\"0\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no {needle:?} line in exposition:\n{text}"))
        .trim()
        .parse()
        .expect("counter value parses")
}

/// A tiny deterministic generator for the update stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn service_streams_updates_and_answers_queries() {
    let n = 30usize;
    let el = tc_gen::er::gnm(n, 90, 11).simplify();
    let served = el.clone();
    let mut reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();

    let sock = sock_path("e2e");
    let session = MetricsSession::begin();
    let ucfg = UniverseConfig { metrics: Some(session.handle()), ..UniverseConfig::default() };
    let mut cfg = ServeConfig::new(sock.clone());
    cfg.flush_ms = 150;
    cfg.max_batch = 64;
    cfg.tick_ms = 100;
    cfg.metrics = Some(session.handle());

    let server = std::thread::spawn(move || {
        Universe::try_run_config(4, &ucfg, |comm| serve_rank(comm, (&served).into(), &cfg))
    });
    let mut client =
        Client::connect_retry(&sock, Duration::from_secs(30)).expect("service comes up");

    // Cold start: the served count matches the serial oracle.
    let reply = client.request(&Request::Count).expect("count");
    assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));

    let stats = client.request(&Request::Stats).expect("stats");
    assert_eq!(u64_field(&stats, "vertices"), n as u64);
    assert_eq!(u64_field(&stats, "edges"), reference.len() as u64);
    assert_eq!(u64_field(&stats, "batches"), 0);
    assert_eq!(u64_field(&stats, "full_recounts"), 1, "cold start is the only recount");

    // Support of a present edge and of an absent pair.
    let &(pu, pv) = reference.iter().next().expect("graph has edges");
    let reply = client.request(&Request::Support { u: pu, v: pv }).expect("support");
    assert_eq!(reply.get("present"), Some(&Value::Bool(true)));
    assert_eq!(u64_field(&reply, "support"), serial_support(n, &reference, pu, pv));
    let (au, av) = (0..n as u32)
        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
        .find(|p| !reference.contains(p))
        .expect("graph is not complete");
    let reply = client.request(&Request::Support { u: au, v: av }).expect("absent support");
    assert_eq!(reply.get("present"), Some(&Value::Bool(false)));
    assert_eq!(u64_field(&reply, "support"), serial_support(n, &reference, au, av));

    // Typed protocol errors.
    let err = client.request(&Request::Support { u: 3, v: 3 }).unwrap_err();
    assert!(err.starts_with("bad_request"), "self-loop support: {err}");
    let err = client
        .request(&Request::Update { insert: vec![(0, n as u32)], delete: vec![] })
        .unwrap_err();
    assert!(err.starts_with("bad_request"), "out-of-range update: {err}");
    let raw = client.request_raw("{\"op\":\"warp\"}").expect("reply to unknown op");
    assert!(raw.contains("\"bad_request\""), "unknown op: {raw}");
    let raw = client.request_raw("not json").expect("reply to junk");
    assert!(raw.contains("\"bad_request\""), "junk line: {raw}");
    // 200 kB of `[` used to overflow the stack in the parser and abort
    // the whole fleet; it is one more bad request.
    let raw = client.request_raw(&"[".repeat(200_000)).expect("reply to deep nesting");
    assert!(raw.contains("\"bad_request\"") && raw.contains("nesting deeper"), "deep line: {raw}");
    let reply = client.request(&Request::Count).expect("the fleet still answers");
    assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));

    // Stream >100 update batches. Every update is chased by a count,
    // whose read barrier applies the buffer as exactly one batch and
    // must observe the write (read-your-writes) — and the maintained
    // count must track the serial oracle at every step.
    let mut rng = Lcg(0xA5A5_5A5A);
    let mut expected_batches = 0u64;
    for round in 0..110 {
        let mut insert = Vec::new();
        let mut delete = Vec::new();
        for _ in 0..(1 + rng.next() % 5) {
            if rng.next() % 3 == 0 && !reference.is_empty() {
                // Delete a currently-present edge.
                let idx = rng.next() as usize % reference.len();
                delete.push(*reference.iter().nth(idx).expect("index in range"));
            } else {
                let u = (rng.next() % n as u64) as u32;
                let v = (rng.next() % n as u64) as u32;
                if u == v {
                    continue;
                }
                let e = (u.min(v), u.max(v));
                if rng.next() % 4 == 0 {
                    delete.push(e);
                } else {
                    insert.push(e);
                }
            }
        }
        if insert.is_empty() && delete.is_empty() {
            insert.push((0, 1 + (round % 7)));
        }
        for &e in &insert {
            reference.insert(e);
        }
        for &e in &delete {
            reference.remove(&e);
        }
        let queued = insert.len() + delete.len();
        let reply = client.request(&Request::Update { insert, delete }).expect("update accepted");
        assert_eq!(u64_field(&reply, "queued"), queued as u64);
        expected_batches += 1;
        let reply = client.request(&Request::Count).expect("count after update");
        assert_eq!(
            u64_field(&reply, "triangles"),
            serial_triangles(n, &reference),
            "maintained count drifted from the serial oracle at round {round}"
        );
    }

    // Deletes win over inserts of the same edge within one request.
    let probe = *reference.iter().next().expect("edges survive the stream");
    client
        .request(&Request::Update { insert: vec![probe], delete: vec![probe] })
        .expect("conflicting update accepted");
    reference.remove(&probe);
    expected_batches += 1;
    let reply = client.request(&Request::Support { u: probe.0, v: probe.1 }).expect("support");
    assert_eq!(reply.get("present"), Some(&Value::Bool(false)));

    // Explicit flush applies the buffer (and is a no-op when empty).
    client
        .request(&Request::Update { insert: vec![probe], delete: vec![] })
        .expect("re-insert accepted");
    reference.insert(probe);
    expected_batches += 1;
    let reply = client.request(&Request::Flush).expect("flush");
    assert_eq!(u64_field(&reply, "applied"), 1);
    assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));
    let reply = client.request(&Request::Flush).expect("empty flush");
    assert_eq!(u64_field(&reply, "applied"), 0);

    // Truss membership against the serial decomposition.
    let final_el = ref_edge_list(n, &reference);
    let decomp = tc_graph::truss::truss_decomposition(&final_el).expect("serial truss oracle");
    for k in [2u32, 3, 4] {
        let reply = client.request(&Request::Truss { k }).expect("truss");
        let got: BTreeSet<(u32, u32)> = reply
            .get("edges")
            .and_then(Value::as_arr)
            .expect("edges array")
            .iter()
            .map(|p| {
                let p = p.as_arr().expect("pair");
                (p[0].as_u64().unwrap() as u32, p[1].as_u64().unwrap() as u32)
            })
            .collect();
        let want: BTreeSet<(u32, u32)> = decomp
            .edges
            .iter()
            .zip(&decomp.trussness)
            .filter(|&(_, &t)| t >= k)
            .map(|(&e, _)| e)
            .collect();
        assert_eq!(got, want, "{k}-truss membership");
    }

    // The timed flush: buffer an update, issue no read, and wait past
    // flush_ms. `metrics` is deliberately not a read barrier, so the
    // batch counter it scrapes can only have moved if the timer fired.
    let reply = client.request(&Request::Metrics).expect("metrics");
    let prom = reply.get("prometheus").and_then(Value::as_str).expect("exposition text");
    assert_eq!(prom_counter0(prom, "tc_serve_full_recounts"), 1);
    // The per-op latency histograms are pre-seeded: all four appear
    // in the exposition whether or not the op has been queried.
    for op in ["count_ns", "support_ns", "truss_ns", "stats_ns"] {
        let series = format!("tc_serve_query_latency_{op}_count{{rank=\"0\"}}");
        assert!(prom.contains(&series), "latency series {series} missing:\n{prom}");
    }
    let before = prom_counter0(prom, "tc_serve_batches_applied");
    assert_eq!(before, expected_batches);
    let fresh = (0..n as u32)
        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
        .find(|p| !reference.contains(p))
        .expect("graph is not complete");
    client
        .request(&Request::Update { insert: vec![fresh], delete: vec![] })
        .expect("buffered update");
    reference.insert(fresh);
    expected_batches += 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let reply = client.request(&Request::Metrics).expect("metrics");
        let prom = reply.get("prometheus").and_then(Value::as_str).expect("exposition text");
        if prom_counter0(prom, "tc_serve_batches_applied") == expected_batches {
            break;
        }
        assert!(Instant::now() < deadline, "timed flush never applied the buffered update");
    }

    // Final stats, then shutdown.
    let stats = client.request(&Request::Stats).expect("final stats");
    assert_eq!(u64_field(&stats, "batches"), expected_batches);
    assert!(u64_field(&stats, "batches") > 100, "acceptance: >100 applied batches");
    assert_eq!(u64_field(&stats, "edges"), reference.len() as u64);
    assert_eq!(u64_field(&stats, "full_recounts"), 1, "hot path never recounts");
    // Per-query latency summary: every op is present in the reply,
    // and the ops this test exercised carry samples with sane
    // quantile brackets.
    let lat = stats.get("query_latency_ns").expect("latency object in stats reply");
    for op in ["count", "support", "truss", "stats"] {
        let l = lat.get(op).unwrap_or_else(|| panic!("latency summary for {op:?} in {lat:?}"));
        let n_samples = u64_field(l, "n");
        assert!(n_samples > 0, "{op} queries were measured (n={n_samples})");
        let p50 = l.get("p50").and_then(Value::as_arr).expect("p50 bracket");
        let (lo, hi) = (p50[0].as_u64().unwrap(), p50[1].as_u64().unwrap());
        assert!(lo <= hi && hi > 0, "{op} p50 bracket is sane: [{lo},{hi}]");
        let p99 = l.get("p99").and_then(Value::as_arr).expect("p99 bracket");
        assert!(p99[0].as_u64().unwrap() >= lo, "{op} p99 at or above p50");
    }
    client.request(&Request::Shutdown).expect("shutdown");

    let (reports, _stats) = server.join().expect("server thread").expect("universe run");
    let final_count = serial_triangles(n, &reference);
    assert_eq!(reports[0].batches, expected_batches);
    assert_eq!(reports[0].full_recounts, 1);
    assert_eq!(reports[0].rejected, 0);
    assert!(reports[0].queries > 0);
    for r in &reports {
        assert_eq!(r.triangles, final_count, "count stays replicated across the fleet");
    }

    // The surviving connection is told the service is gone.
    let err = client.request(&Request::Count).unwrap_err();
    assert!(err.starts_with("shutting_down"), "post-shutdown request: {err}");
    drop(session);
}

#[test]
fn support_only_load_does_not_starve_idle_peers_of_ticks() {
    // Every `support` below lives on ranks 0 and 1, so ranks 2 and 3
    // hear nothing but heartbeats: a second of them under a 300 ms
    // receive deadline must not time either out.
    let n = 40usize;
    let el = tc_gen::er::gnm(n, 160, 17).simplify();
    let served = el.clone();
    let reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    let sock = sock_path("heartbeat");
    let mut cfg = ServeConfig::new(sock.clone());
    cfg.tick_ms = 50;
    let ucfg = UniverseConfig::with_timeout(Duration::from_millis(300));
    let server = std::thread::spawn(move || {
        Universe::try_run_config(4, &ucfg, |c| serve_rank(c, (&served).into(), &cfg))
    });
    let mut client =
        Client::connect_retry(&sock, Duration::from_secs(30)).expect("service comes up");

    let low_half = n as u64 / 2; // vertices of ranks 0 and 1
    let mut rng = Lcg(0x5EED);
    let started = Instant::now();
    let mut answered = 0;
    while started.elapsed() < Duration::from_millis(1200) {
        let (u, v) = ((rng.next() % low_half) as u32, (rng.next() % low_half) as u32);
        if u == v {
            continue;
        }
        let reply = client.request(&Request::Support { u, v }).expect("support");
        assert_eq!(u64_field(&reply, "support"), serial_support(n, &reference, u, v));
        answered += 1;
    }
    assert!(answered > 0);
    let reply = client.request(&Request::Count).expect("count");
    assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));
    let stats = client.request(&Request::Stats).expect("stats");
    assert_eq!(u64_field(&stats, "edges"), reference.len() as u64);
    assert_eq!(u64_field(&stats, "triangles"), serial_triangles(n, &reference));
    client.request(&Request::Shutdown).expect("shutdown");
    let (reports, _) = server.join().expect("server thread").expect("no rank timed out");
    assert!(reports.iter().all(|r| r.triangles == serial_triangles(n, &reference)));
}

#[test]
fn admission_control_rejects_over_capacity() {
    let el = tc_gen::er::gnm(10, 20, 3).simplify();
    let sock = sock_path("gate");
    let mut cfg = ServeConfig::new(sock.clone());
    cfg.queue = 1;
    cfg.tick_ms = 100;

    let server = std::thread::spawn(move || {
        Universe::try_run_config(4, &UniverseConfig::default(), |comm| {
            serve_rank(comm, (&el).into(), &cfg)
        })
    });
    Client::connect_retry(&sock, Duration::from_secs(30)).expect("service comes up");

    // Hammer the single-slot queue from many connections until one
    // request bounces with the typed rejection.
    let seen = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(30);
    let workers: Vec<_> = (0..12)
        .map(|_| {
            let sock = sock.clone();
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(&sock) else { return };
                while !seen.load(Ordering::Relaxed) && Instant::now() < deadline {
                    match c.request(&Request::Count) {
                        Ok(_) => {}
                        Err(e) if e == "over_capacity" => {
                            seen.store(true, Ordering::Relaxed);
                        }
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    assert!(seen.load(Ordering::Relaxed), "no request was ever rejected over capacity");

    // The queue drains once the hammering stops; shutdown may still
    // race one straggler, so retry on the typed rejection.
    let mut client = Client::connect(&sock).expect("fresh connection");
    loop {
        match client.request(&Request::Shutdown) {
            Ok(_) => break,
            Err(e) if e == "over_capacity" => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("shutdown failed: {e}"),
        }
    }
    let (reports, _stats) = server.join().expect("server thread").expect("universe run");
    assert!(reports[0].rejected >= 1, "rejections are tallied in the report");
}

#[test]
fn shutdown_reply_is_on_the_wire_before_the_service_returns() {
    // Regression: the frontend handed the `shutdown` reply to the
    // detached connection thread and returned at once, so a process
    // that exits right after (`tricount serve`) cut the reply off
    // about once in 700 shutdowns. The service must not return before
    // the line has been written: once the fleet has been joined, a
    // non-blocking read has to find the complete reply already there.
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let el = tc_gen::er::gnm(10, 20, 3).simplify();
    for round in 0..25 {
        let served = el.clone();
        let sock = sock_path(&format!("shutdown-ack-{round}"));
        let mut cfg = ServeConfig::new(sock.clone());
        cfg.tick_ms = 100;
        let server = std::thread::spawn(move || {
            Universe::try_run_config(4, &UniverseConfig::default(), |comm| {
                serve_rank(comm, (&served).into(), &cfg)
            })
        });
        Client::connect_retry(&sock, Duration::from_secs(30)).expect("service comes up");

        let mut raw = UnixStream::connect(&sock).expect("raw connection");
        writeln!(raw, "{}", tc_serve::proto::request_line(&Request::Shutdown)).expect("send");
        server.join().expect("server thread").expect("universe run");

        raw.set_nonblocking(true).expect("nonblocking");
        let mut buf = [0u8; 256];
        let n = raw.read(&mut buf).unwrap_or_else(|e| {
            panic!("round {round}: service returned before writing the shutdown reply ({e})")
        });
        assert_eq!(
            std::str::from_utf8(&buf[..n]).expect("utf-8 reply"),
            format!("{}\n", tc_serve::proto::ok_shutdown()),
            "round {round}"
        );
    }
}

/// Starts a 4-rank fleet over `el` behind `sock` and waits until it
/// answers.
fn start_fleet(
    el: &EdgeList,
    sock: &std::path::Path,
) -> std::thread::JoinHandle<Vec<tc_serve::ServeReport>> {
    let served = el.clone();
    let mut cfg = ServeConfig::new(sock.to_path_buf());
    cfg.tick_ms = 100;
    let server = std::thread::spawn(move || {
        Universe::try_run_config(4, &UniverseConfig::default(), |comm| {
            serve_rank(comm, (&served).into(), &cfg)
        })
        .expect("universe run")
        .0
    });
    Client::connect_retry(sock, Duration::from_secs(30)).expect("service comes up");
    server
}

/// Reads one reply line and parses it.
fn read_json(reader: &mut impl std::io::BufRead) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    tc_metrics::json::parse(line.trim_end()).unwrap_or_else(|e| panic!("reply {line:?}: {e}"))
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    use std::io::{BufReader, Write};

    let n = 30usize;
    let el = tc_gen::er::gnm(n, 90, 5).simplify();
    let reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    let sock = sock_path("pipeline");
    let server = start_fleet(&el, &sock);

    // A `count`, a junk line and a `support` in one `write`: three
    // replies, in that order, the `bad_request` in the middle.
    let &(u, v) = reference.iter().next().expect("graph has edges");
    let count = tc_serve::proto::request_line(&Request::Count);
    let support = tc_serve::proto::request_line(&Request::Support { u, v });
    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("raw connection");
    raw.write_all(format!("{count}\nnot json\n{support}\n").as_bytes()).expect("one write");
    let mut replies = BufReader::new(raw.try_clone().expect("read half"));
    assert_eq!(u64_field(&read_json(&mut replies), "triangles"), serial_triangles(n, &reference));
    let junk = read_json(&mut replies);
    assert_eq!(junk.get("error").and_then(Value::as_str), Some("bad_request"), "{junk:?}");
    let reply = read_json(&mut replies);
    assert_eq!(reply.get("present"), Some(&Value::Bool(true)));
    assert_eq!(u64_field(&reply, "support"), serial_support(n, &reference, u, v));

    let mut client = Client::connect(&sock).expect("client");
    client.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

/// The rule this holds: a connection whose output buffer is not empty
/// is not read. So a client that pipelines without reading fills its
/// own sockets and sees `WouldBlock` (the frontend keeps at most one
/// reply of it), while every other client is still served.
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    use std::io::{BufReader, ErrorKind, Write};

    let n = 40usize;
    let el = tc_gen::er::gnm(n, 160, 23).simplify();
    let reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    let sock = sock_path("backpressure");
    let server = start_fleet(&el, &sock);
    let mut b = Client::connect(&sock).expect("client b");

    let pairs: Vec<(u32, u32)> =
        (0..n as u32).flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v))).collect();
    let mut a = std::os::unix::net::UnixStream::connect(&sock).expect("client a");
    a.set_nonblocking(true).expect("nonblocking a");
    // One more pipelined `support` from A; false once A's socket is full.
    let mut sent = Vec::new();
    let mut write_a = |sent: &mut Vec<(u32, u32)>| {
        let (u, v) = pairs[sent.len() % pairs.len()];
        let line = format!("{}\n", tc_serve::proto::request_line(&Request::Support { u, v }));
        match a.write(line.as_bytes()) {
            Ok(k) => assert_eq!(k, line.len(), "a short line is written whole or not at all"),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) => panic!("client a: {e}"),
        }
        sent.push((u, v));
        true
    };
    // A pipelines until its socket is full, then B asks. B's exact
    // answer proves the frontend ran a turn in between; A is stalled
    // once that turn left its socket full, i.e. did not read it.
    loop {
        while write_a(&mut sent) {}
        let reply = b.request(&Request::Count).expect("b is served while a is stalled");
        assert_eq!(u64_field(&reply, "triangles"), serial_triangles(n, &reference));
        if !write_a(&mut sent) {
            break;
        }
        assert!(sent.len() < 1_000_000, "the frontend kept reading a client that never reads");
    }

    // A reads every reply: all there, in order, each exact.
    a.set_nonblocking(false).expect("blocking a");
    let mut replies = BufReader::new(a);
    for (i, &(u, v)) in sent.iter().enumerate() {
        let reply = read_json(&mut replies);
        assert_eq!(
            u64_field(&reply, "support"),
            serial_support(n, &reference, u, v),
            "reply {i} of {} answers ({u}, {v})",
            sent.len()
        );
        assert_eq!(reply.get("present"), Some(&Value::Bool(reference.contains(&(u, v)))));
    }

    b.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

/// The `shutdown` reply is waited for, a stalled client's unsent reply
/// is not: the service returns well inside the 5 s bound on that wait
/// while a client that never reads still owes it most of a megabyte.
#[test]
fn a_client_that_never_reads_does_not_hold_up_shutdown() {
    use std::io::Write;

    // `truss 2` lists every edge: a reply far larger than a socket takes.
    let el = tc_gen::er::gnm(20_000, 100_000, 29).simplify();
    let sock = sock_path("stalled-shutdown");
    let server = start_fleet(&el, &sock);
    let mut a = std::os::unix::net::UnixStream::connect(&sock).expect("client a");
    writeln!(a, "{}", tc_serve::proto::request_line(&Request::Truss { k: 2 })).expect("send");
    // Jobs run in admission order: once B's `count` is back, A's reply
    // is built and waiting on A.
    let mut b = Client::connect(&sock).expect("client b");
    b.request(&Request::Count).expect("count");

    let asked = Instant::now();
    b.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
    assert!(
        asked.elapsed() < Duration::from_secs(4),
        "shutdown waited {:?} on a client that never reads",
        asked.elapsed()
    );
}

/// Starts a fleet, has client A write `chunk` over and over (reading
/// whatever replies come back), and checks that client B's `count`s
/// are answered exactly meanwhile: each turn moves a connection one
/// step, so no client holds the one frontend thread.
fn streaming_client_does_not_starve_others(label: &str, chunk: String) {
    use std::io::{BufReader, Write};
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;

    let n = 30usize;
    let el = tc_gen::er::gnm(n, 90, 7).simplify();
    let triangles = serial_triangles(n, &el.edges.iter().copied().collect());
    let sock = sock_path(label);
    let server = start_fleet(&el, &sock);

    let a = UnixStream::connect(&sock).expect("client a");
    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicUsize::new(0));
    let writer = {
        let (stop, written) = (Arc::clone(&stop), Arc::clone(&written));
        let mut w = a.try_clone().expect("writer half");
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) && w.write_all(chunk.as_bytes()).is_ok() {
                written.fetch_add(chunk.len(), Ordering::Relaxed);
            }
            let _ = w.write_all(b"\n");
            let _ = w.shutdown(Shutdown::Write);
        })
    };
    let reader = std::thread::spawn(move || std::io::copy(&mut &a, &mut std::io::sink()));
    // A chunk, more than a socket holds, is written: the frontend is
    // reading A.
    let deadline = Instant::now() + Duration::from_secs(60);
    while written.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "a's stream never got going");
        std::thread::yield_now();
    }

    // A read timeout turns a starved B into a failure, not a hang.
    let mut b = UnixStream::connect(&sock).expect("client b");
    b.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut b_replies = BufReader::new(b.try_clone().expect("read half"));
    let count = tc_serve::proto::request_line(&Request::Count);
    for _ in 0..20 {
        writeln!(b, "{count}").expect("send count");
        assert_eq!(u64_field(&read_json(&mut b_replies), "triangles"), triangles);
    }
    assert!(!writer.is_finished(), "a was still streaming while b was served");

    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    let replied = reader.join().expect("reader thread").expect("a's replies end at its hang-up");
    assert!(replied > 0, "a's refused lines are answered");
    Client::connect(&sock).expect("client").request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

/// Refused and blank lines are handled by the loop itself, one line
/// per turn.
#[test]
fn a_client_streaming_junk_lines_does_not_starve_others() {
    let chunk = format!("not json{}", "\r\n".repeat(1023)).repeat(256);
    streaming_client_does_not_starve_others("junk-lines", chunk);
}

/// A line that keeps growing is read one chunk per turn, and each byte
/// is searched for its end once.
#[test]
fn a_client_streaming_one_endless_line_does_not_starve_others() {
    streaming_client_does_not_starve_others("endless-line", "[".repeat(512 << 10));
}
