//! The harness's own view of a generated graph: a reader for the
//! `.bin` edge list `tricount generate` writes, sorted adjacency, and
//! an independent triangle counter. Nothing here comes from the repo's
//! crates, so a count the program prints is checked against code the
//! program does not share.

use std::io::{self, Read};
use std::path::Path;

/// Magic of the binary edge-list format ("TCBGRAPH", little-endian).
const BIN_MAGIC: u64 = 0x5443_4247_5241_5048;

/// A simple undirected graph: each edge once as `(min, max)`, sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub fn read_bin(path: &Path) -> io::Result<Graph> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_bin(&bytes)
}

/// Parses `u64 magic, u64 n, u64 m` then `m` little-endian `u32` pairs.
pub fn parse_bin(bytes: &[u8]) -> io::Result<Graph> {
    let word = |at: usize| -> io::Result<u64> {
        let b = bytes.get(at..at + 8).ok_or_else(|| bad(format!("truncated header at {at}")))?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    };
    if word(0)? != BIN_MAGIC {
        return Err(bad("not a tricount .bin edge list".into()));
    }
    let n = usize::try_from(word(8)?).map_err(|_| bad("vertex count overflows".into()))?;
    let m = usize::try_from(word(16)?).map_err(|_| bad("edge count overflows".into()))?;
    let body = &bytes[24..];
    if m.checked_mul(8) != Some(body.len()) {
        return Err(bad(format!("header says {m} edges, body holds {} bytes", body.len())));
    }
    let mut edges = Vec::with_capacity(m);
    for rec in body.chunks_exact(8) {
        let u = u32::from_le_bytes(rec[..4].try_into().expect("4-byte slice"));
        let v = u32::from_le_bytes(rec[4..].try_into().expect("4-byte slice"));
        if u == v || u as usize >= n || v as usize >= n {
            return Err(bad(format!("edge ({u}, {v}) is not valid on {n} vertices")));
        }
        edges.push((u.min(v), u.max(v)));
    }
    edges.sort_unstable();
    edges.dedup();
    Ok(Graph { n, edges })
}

/// Sorted neighbour lists in one array.
#[derive(Debug)]
pub struct Adj {
    xadj: Vec<usize>,
    adj: Vec<u32>,
}

impl Adj {
    /// Both directions of every edge.
    pub fn undirected(g: &Graph) -> Adj {
        Adj::build(g.n, g.edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]))
    }

    fn build(n: usize, arcs: impl Iterator<Item = (u32, u32)> + Clone) -> Adj {
        let mut xadj = vec![0usize; n + 1];
        for (u, _) in arcs.clone() {
            xadj[u as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let mut fill = xadj.clone();
        let mut adj = vec![0u32; xadj[n]];
        for (u, v) in arcs {
            adj[fill[u as usize]] = v;
            fill[u as usize] += 1;
        }
        for v in 0..n {
            adj[xadj[v]..xadj[v + 1]].sort_unstable();
        }
        Adj { xadj, adj }
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of common neighbours of `u` and `v` (the `support` reply).
    pub fn common(&self, u: u32, v: u32) -> u64 {
        merge_count(self.neighbors(u), self.neighbors(v))
    }
}

fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut hits) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    hits
}

/// Exact triangle count: orient every edge from the endpoint of lower
/// (degree, id) to the higher one, then each triangle is found once as
/// a common out-neighbour of an oriented edge. Rows are dealt to the
/// machine's cores round-robin.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut degree = vec![0u32; g.n];
    for &(u, v) in &g.edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut order: Vec<u32> = (0..g.n as u32).collect();
    order.sort_unstable_by_key(|&v| (degree[v as usize], v));
    let mut rank = vec![0u32; g.n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let out = Adj::build(
        g.n,
        g.edges.iter().map(|&(u, v)| {
            let (a, b) = (rank[u as usize], rank[v as usize]);
            (a.min(b), a.max(b))
        }),
    );
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(8);
    let out = &out;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut hits = 0u64;
                    for v in (k..g.n).step_by(threads) {
                        let row = out.neighbors(v as u32);
                        for &w in row {
                            hits += merge_count(row, out.neighbors(w));
                        }
                    }
                    hits
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("counting thread panicked")).sum()
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A small fixed graph with hubs, used by the script tests too.
    pub fn toy(n: u32) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if (u * 7 + v * 13) % 5 == 0 || u < 3 {
                    edges.push((u, v));
                }
            }
        }
        Graph { n: n as usize, edges }
    }

    fn brute(g: &Graph) -> u64 {
        let adj = Adj::undirected(g);
        let mut t = 0;
        for &(u, v) in &g.edges {
            for &w in adj.neighbors(v) {
                if w > v && adj.has_edge(u, w) {
                    t += 1;
                }
            }
        }
        t
    }

    #[test]
    fn counts_agree_with_brute_force() {
        let k4 = Graph { n: 4, edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] };
        assert_eq!(count_triangles(&k4), 4);
        let path = Graph { n: 4, edges: vec![(0, 1), (1, 2), (2, 3)] };
        assert_eq!(count_triangles(&path), 0);
        let g = toy(60);
        assert!(brute(&g) > 0);
        assert_eq!(count_triangles(&g), brute(&g));
    }

    #[test]
    fn common_counts_shared_neighbours() {
        let k4 = Graph { n: 5, edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] };
        let adj = Adj::undirected(&k4);
        assert_eq!(adj.common(0, 1), 2);
        assert_eq!(adj.common(0, 4), 0);
        assert!(adj.has_edge(3, 0) && !adj.has_edge(4, 0));
    }

    #[test]
    fn reads_what_the_format_says() {
        let mut bytes = Vec::new();
        for w in [BIN_MAGIC, 4, 3] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for x in [2u32, 1, 0, 1, 3, 2] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        let g = parse_bin(&bytes).unwrap();
        assert_eq!(g, Graph { n: 4, edges: vec![(0, 1), (1, 2), (2, 3)] });
        assert!(parse_bin(&bytes[..bytes.len() - 4]).is_err());
        assert!(parse_bin(&bytes[..20]).is_err());
    }
}
