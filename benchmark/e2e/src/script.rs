//! Deterministic request scripts for the serve workloads.
//!
//! A script is a function of (seed, workload, connection) and the
//! generated graph, built before the fleet starts: the same seed gives
//! the same bytes on every run. A connection walks its script in order
//! and starts over at the end, until the measuring time is up.
//!
//! The write script keeps the final graph independent of how the two
//! connections interleave: connection `c` only mutates edges whose
//! smaller endpoint is `c` modulo the connection count, so the two
//! connections never touch the same edge and their mutations commute.

use std::collections::HashSet;

use crate::graph::{Adj, Graph};

/// Requests in one connection's read script (2 connections: the
/// issue's 60 000 scripted requests).
pub const READ_SCRIPT_LEN: usize = 30_000;
/// Requests in one connection's write script (2 × 20 000).
pub const WRITE_SCRIPT_LEN: usize = 20_000;
/// Edge mutations per `update` request.
pub const OPS_PER_UPDATE: usize = 8;
/// An explicit `flush` follows this many updates.
pub const UPDATES_PER_FLUSH: usize = 32;
/// Edges a write connection draws its mutations and reads from: this
/// many existing edges plus this many random pairs.
const POOL_HALF: usize = 4096;

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent streams for the same seed differ in `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything the
    /// benchmark resolves).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Request kinds, as the latency breakdown indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Count = 0,
    Support = 1,
    Update = 2,
    Flush = 3,
}

/// What a correct reply must say, beyond `"ok":true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Ok,
    Triangles(u64),
    Support { support: u64, present: bool },
}

/// One scripted request: the exact line sent (newline included), the
/// reply it must get, and the edge edits it makes (`true` = insert),
/// in the order the service applies them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub op: Op,
    pub line: String,
    pub expect: Expect,
    pub edits: Vec<(u32, u32, bool)>,
}

fn support_line(u: u32, v: u32) -> String {
    format!("{{\"op\":\"support\",\"u\":{u},\"v\":{v}}}\n")
}

fn random_pair(rng: &mut Rng, n: usize) -> (u32, u32) {
    loop {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            return (u, v);
        }
    }
}

/// The read mix: 10 % `count`, 90 % `support`, half of those on
/// existing edges and half on random vertex pairs. Every reply is
/// checked against the harness's own adjacency.
pub fn read_script(seed: u64, conn: usize, g: &Graph, adj: &Adj, triangles: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x5ead_0000 + conn as u64);
    (0..READ_SCRIPT_LEN)
        .map(|_| {
            if rng.below(100) < 10 {
                return Request {
                    op: Op::Count,
                    line: "{\"op\":\"count\"}\n".to_string(),
                    expect: Expect::Triangles(triangles),
                    edits: Vec::new(),
                };
            }
            let (u, v) = if rng.below(2) == 0 {
                let (a, b) = g.edges[rng.below(g.edges.len())];
                if rng.below(2) == 0 {
                    (a, b)
                } else {
                    (b, a)
                }
            } else {
                random_pair(&mut rng, g.n)
            };
            Request {
                op: Op::Support,
                line: support_line(u, v),
                expect: Expect::Support { support: adj.common(u, v), present: adj.has_edge(u, v) },
                edits: Vec::new(),
            }
        })
        .collect()
}

/// The edges connection `conn` of `conns` may touch: existing edges
/// and random pairs whose smaller endpoint is `conn` modulo `conns`.
fn write_pool(rng: &mut Rng, conn: usize, conns: usize, g: &Graph) -> Vec<(u32, u32)> {
    let mine = |&(u, v): &(u32, u32)| u.min(v) as usize % conns == conn;
    let mut pool = Vec::with_capacity(2 * POOL_HALF);
    while pool.len() < POOL_HALF {
        let e = g.edges[rng.below(g.edges.len())];
        if mine(&e) {
            pool.push(e);
        }
    }
    while pool.len() < 2 * POOL_HALF {
        let e = random_pair(rng, g.n);
        if mine(&e) {
            pool.push((e.0.min(e.1), e.0.max(e.1)));
        }
    }
    pool
}

fn pair_list(out: &mut String, key: &str, edits: &[(u32, u32, bool)], insert: bool) {
    let mut first = true;
    for &(u, v, ins) in edits {
        if ins != insert {
            continue;
        }
        out.push_str(if first { key } else { "," });
        first = false;
        out.push_str(&format!("[{u},{v}]"));
    }
    if !first {
        out.push(']');
    }
}

/// The write mix: 70 % `update` (8 seeded inserts/deletes over the
/// connection's pool), 30 % `support` reads (each a read-your-writes
/// barrier), and an explicit `flush` after every 32 updates. Replies
/// are checked for `ok`; the final count is checked against
/// [`replay`].
pub fn write_script(seed: u64, conn: usize, conns: usize, g: &Graph) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x3717_0000 + conn as u64);
    let pool = write_pool(&mut rng, conn, conns, g);
    let mut script = Vec::with_capacity(WRITE_SCRIPT_LEN);
    let mut updates_since_flush = 0;
    while script.len() < WRITE_SCRIPT_LEN {
        if updates_since_flush == UPDATES_PER_FLUSH {
            updates_since_flush = 0;
            script.push(Request {
                op: Op::Flush,
                line: "{\"op\":\"flush\"}\n".to_string(),
                expect: Expect::Ok,
                edits: Vec::new(),
            });
        } else if rng.below(100) < 70 {
            updates_since_flush += 1;
            let mut edits: Vec<(u32, u32, bool)> = (0..OPS_PER_UPDATE)
                .map(|_| {
                    let (u, v) = pool[rng.below(pool.len())];
                    (u, v, rng.below(2) == 0)
                })
                .collect();
            // The service applies a request's inserts, then its deletes.
            edits.sort_by_key(|&(_, _, insert)| !insert);
            let mut line = String::from("{\"op\":\"update\"");
            pair_list(&mut line, ",\"insert\":[", &edits, true);
            pair_list(&mut line, ",\"delete\":[", &edits, false);
            line.push_str("}\n");
            script.push(Request { op: Op::Update, line, expect: Expect::Ok, edits });
        } else {
            let (u, v) = pool[rng.below(pool.len())];
            script.push(Request {
                op: Op::Support,
                line: support_line(u, v),
                expect: Expect::Ok,
                edits: Vec::new(),
            });
        }
    }
    script
}

/// The bytes a connection sends for one pass over its script.
#[cfg(test)]
pub fn script_bytes(script: &[Request]) -> Vec<u8> {
    script.iter().flat_map(|r| r.line.bytes()).collect()
}

/// The graph after each connection sent the first `executed[c]`
/// requests of its (cyclic) script: the offline oracle for the final
/// `count` of the write workload.
pub fn replay(g: &Graph, scripts: &[Vec<Request>], executed: &[usize]) -> Graph {
    let key = |u: u32, v: u32| (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
    let mut set: HashSet<u64> = g.edges.iter().map(|&(u, v)| key(u, v)).collect();
    for (script, &sent) in scripts.iter().zip(executed) {
        for i in 0..sent {
            for &(u, v, insert) in &script[i % script.len()].edits {
                if insert {
                    set.insert(key(u, v));
                } else {
                    set.remove(&key(u, v));
                }
            }
        }
    }
    let mut edges: Vec<(u32, u32)> =
        set.into_iter().map(|k| ((k >> 32) as u32, k as u32)).collect();
    edges.sort_unstable();
    Graph { n: g.n, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::toy;

    #[test]
    fn same_seed_same_bytes() {
        let g = toy(80);
        let adj = Adj::undirected(&g);
        for conn in 0..2 {
            let a = script_bytes(&read_script(7, conn, &g, &adj, 11));
            let b = script_bytes(&read_script(7, conn, &g, &adj, 11));
            assert_eq!(a, b);
            let a = script_bytes(&write_script(7, conn, 2, &g));
            let b = script_bytes(&write_script(7, conn, 2, &g));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seed_and_connection_change_the_bytes() {
        let g = toy(80);
        let adj = Adj::undirected(&g);
        let base = script_bytes(&read_script(1, 0, &g, &adj, 11));
        assert_ne!(base, script_bytes(&read_script(2, 0, &g, &adj, 11)));
        assert_ne!(base, script_bytes(&read_script(1, 1, &g, &adj, 11)));
        let base = script_bytes(&write_script(1, 0, 2, &g));
        assert_ne!(base, script_bytes(&write_script(2, 0, 2, &g)));
        assert_ne!(base, script_bytes(&write_script(1, 1, 2, &g)));
    }

    #[test]
    fn read_script_has_the_stated_mix_and_true_answers() {
        let g = toy(80);
        let adj = Adj::undirected(&g);
        let script = read_script(3, 0, &g, &adj, 11);
        assert_eq!(script.len(), READ_SCRIPT_LEN);
        let counts = script.iter().filter(|r| r.op == Op::Count).count();
        assert!((2_400..3_600).contains(&counts), "{counts} counts of 30000");
        let present = script
            .iter()
            .filter(|r| matches!(r.expect, Expect::Support { present: true, .. }))
            .count();
        assert!(present > READ_SCRIPT_LEN / 3, "{present} reads of existing edges");
        for r in script.iter().take(200) {
            assert!(r.line.ends_with("}\n") && r.edits.is_empty());
        }
    }

    #[test]
    fn write_script_flushes_every_32_updates_and_partitions_edges() {
        let g = toy(80);
        let scripts: Vec<_> = (0..2).map(|c| write_script(5, c, 2, &g)).collect();
        for (conn, script) in scripts.iter().enumerate() {
            assert_eq!(script.len(), WRITE_SCRIPT_LEN);
            let mut updates = 0;
            for r in script {
                match r.op {
                    Op::Update => {
                        updates += 1;
                        assert_eq!(r.edits.len(), OPS_PER_UPDATE);
                        assert!(r.edits.iter().all(|&(u, v, _)| u < v && u as usize % 2 == conn));
                        // Inserts are listed (and applied) before deletes.
                        assert!(r.edits.windows(2).all(|w| w[0].2 || !w[1].2));
                    }
                    Op::Flush => {
                        assert_eq!(updates, UPDATES_PER_FLUSH);
                        updates = 0;
                    }
                    Op::Support => {}
                    Op::Count => panic!("the write script sends no count"),
                }
            }
            let share = script.iter().filter(|r| r.op == Op::Update).count() * 100 / script.len();
            assert!((64..74).contains(&share), "{share} % updates");
        }
        let line = &scripts[0].iter().find(|r| r.op == Op::Update).unwrap().line;
        assert!(line.starts_with("{\"op\":\"update\",\"") && line.ends_with("]}\n"), "{line}");
    }

    #[test]
    fn replay_applies_prefixes_in_order_and_wraps() {
        let g = Graph { n: 6, edges: vec![(0, 1), (2, 3)] };
        let req = |edits: Vec<(u32, u32, bool)>| Request {
            op: Op::Update,
            line: String::new(),
            expect: Expect::Ok,
            edits,
        };
        let a = vec![req(vec![(0, 4, true), (0, 1, false)]), req(vec![(0, 4, false)])];
        let b = vec![req(vec![(1, 5, true)])];
        let after = |sent: [usize; 2]| replay(&g, &[a.clone(), b.clone()], &sent).edges;
        assert_eq!(after([0, 0]), vec![(0, 1), (2, 3)]);
        assert_eq!(after([1, 0]), vec![(0, 4), (2, 3)]);
        assert_eq!(after([2, 1]), vec![(1, 5), (2, 3)]);
        // A third request wraps to the first one again.
        assert_eq!(after([3, 0]), vec![(0, 4), (2, 3)]);
    }
}
