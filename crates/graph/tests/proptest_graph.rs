//! Property tests of the graph substrate: representation round trips,
//! structural invariants of CSR/DCSR, ordering, partition maps, and
//! truss bounds.

use proptest::collection::vec;
use proptest::prelude::*;
use tc_graph::degree::{degree_order, invert_permutation, is_degree_ordered, relabel_by_degree};
use tc_graph::truss;
use tc_graph::{io, Csr, Dcsr, EdgeList};

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..50).prop_flat_map(|n| {
        vec((0..n as u32, 0..n as u32), 0..150)
            .prop_map(move |edges| EdgeList::new(n, edges).simplify())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simplify_is_idempotent(el in arb_graph()) {
        prop_assert!(el.is_simple());
        let again = el.clone().simplify();
        prop_assert_eq!(again, el);
    }

    #[test]
    fn csr_preserves_edges(el in arb_graph()) {
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.num_edges(), el.num_edges());
        let back: Vec<(u32, u32)> = csr.edges().collect();
        prop_assert_eq!(&back, &el.edges);
        // Symmetry: v in N(u) iff u in N(v).
        for (u, v) in csr.edges() {
            prop_assert!(csr.has_edge(u, v) && csr.has_edge(v, u));
        }
        // Handshake lemma.
        let degsum: u64 = csr.degrees().iter().map(|&d| d as u64).sum();
        prop_assert_eq!(degsum, 2 * el.num_edges() as u64);
    }

    #[test]
    fn dcsr_agrees_with_csr(el in arb_graph()) {
        let csr = Csr::from_edge_list(&el);
        let dcsr = Dcsr::from_csr(&csr);
        prop_assert_eq!(dcsr.num_rows(), csr.num_vertices());
        let visited: usize = dcsr.iter_nonempty().map(|(_, row)| row.len()).sum();
        prop_assert_eq!(visited, csr.num_entries());
        for (r, row) in dcsr.iter_nonempty() {
            prop_assert!(!row.is_empty());
            prop_assert_eq!(row, csr.neighbors(r));
        }
    }

    #[test]
    fn degree_order_is_a_valid_sorting_permutation(el in arb_graph()) {
        let degrees = el.degrees();
        let perm = degree_order(&degrees);
        // Bijection.
        let inv = invert_permutation(&perm);
        prop_assert_eq!(invert_permutation(&inv), perm.clone());
        // Sorted after applying.
        let sorted: Vec<u32> = inv.iter().map(|&old| degrees[old as usize]).collect();
        prop_assert!(is_degree_ordered(&sorted));
        // Relabeled graph has the same degree multiset.
        let (relabeled, _) = relabel_by_degree(el.clone());
        let mut a = degrees;
        let mut b = relabeled.degrees();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn text_io_roundtrip(el in arb_graph()) {
        let mut buf = Vec::new();
        io::write_text_edges(&el, &mut buf).unwrap();
        let back = io::read_text_edges(&buf[..]).unwrap().simplify();
        prop_assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn binary_io_roundtrip(el in arb_graph()) {
        let mut buf = Vec::new();
        io::write_binary_edges(&el, &mut buf).unwrap();
        let back = io::read_binary_edges(&buf[..]).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn mutated_binary_files_fail_typed_or_read_alike(
        el in arb_graph(),
        kind in 0usize..9,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        // One structure-aware edit of a canonical `.bin`: the header
        // fields, the length, or one record turned into each defect
        // the canonical form forbids.
        let mut bytes = Vec::new();
        io::write_binary_edges(&el, &mut bytes).unwrap();
        let m = el.num_edges();
        let pick = |x: u64| 24 + 8 * (x as usize % m.max(1));
        let put = |bytes: &mut Vec<u8>, at: usize, u: u32, v: u32| {
            if m > 0 {
                bytes[at..at + 4].copy_from_slice(&u.to_le_bytes());
                bytes[at + 4..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        };
        match kind {
            0 => bytes.truncate(a as usize % (bytes.len() + 1)),
            1 => bytes.extend(std::iter::repeat_n(b as u8, 1 + a as usize % 20)),
            2 => bytes[a as usize % 8] ^= 1 << (b % 8),
            3 => bytes[8..16].copy_from_slice(&(a >> (b % 64)).to_le_bytes()),
            4 => bytes[16..24].copy_from_slice(&(a >> (b % 64)).to_le_bytes()),
            5 => put(&mut bytes, pick(a), b as u32, b as u32),
            6 => put(&mut bytes, pick(a), u32::MAX - b as u32 % 3, b as u32),
            7 if m > 1 => bytes.copy_within(pick(a)..pick(a) + 8, pick(b)),
            _ => {}
        }

        let typed = |e: &io::IoError| match e {
            io::IoError::Corrupt { msg, offset } => Ok((msg.clone(), *offset)),
            other => Err(TestCaseError::Fail(format!("untyped error {other:?}"))),
        };
        let whole = io::read_binary_edges(&bytes[..]);
        if let Err(e) = &whole {
            let (msg, offset) = typed(e)?;
            prop_assert!(offset <= bytes.len() as u64, "{} at {} of {}", msg, offset, bytes.len());
        }
        let path = std::env::temp_dir()
            .join(format!("tc-mutated-{}-{kind}-{a:x}-{b:x}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let opened = io::EdgeFile::open(&path);
        std::fs::remove_file(&path).unwrap();
        let file = match opened {
            Ok(file) => file,
            Err(e) => {
                // Refused up front: the same defect the whole-file
                // reader reports, or bytes it would have ignored.
                let (msg, offset) = typed(&e)?;
                match &whole {
                    Err(w) => prop_assert_eq!(typed(w)?, (msg, offset)),
                    Ok(_) => prop_assert!(msg.contains("bytes after the last"), "{}", msg),
                }
                return Ok(());
            }
        };
        // An opened file is exactly as long as its header says, which
        // is what lets a slice be sized from `m`.
        prop_assert_eq!(24 + 8 * file.num_edges(), bytes.len());
        let one = file.read_records(0, file.num_edges());
        match (&whole, &one) {
            (Ok(w), Ok(records)) => prop_assert_eq!(&w.edges, records),
            (Err(w), Err(o)) => prop_assert_eq!(typed(w)?, typed(o)?),
            _ => prop_assert!(false, "readers disagree: {:?} vs {:?}", whole, one),
        }
        for p in [3usize, 7] {
            let cut = |r: usize| file.num_edges() * r / p;
            let stripes: Vec<_> = (0..p).map(|r| file.read_records(cut(r), cut(r + 1))).collect();
            match &one {
                Ok(records) => {
                    let joined: Vec<_> = stripes.into_iter().flat_map(|s| s.unwrap()).collect();
                    prop_assert_eq!(records, &joined);
                }
                Err(_) => {
                    let first = stripes.iter().find_map(|s| s.as_ref().err()).expect("a bad stripe");
                    prop_assert_eq!(typed(first)?, typed(one.as_ref().unwrap_err())?);
                }
            }
        }
    }

    #[test]
    fn truss_bounds_hold(el in arb_graph()) {
        let sup = truss::edge_supports(&el).unwrap();
        let d = truss::truss_decomposition(&el).unwrap();
        prop_assert_eq!(d.trussness.len(), el.num_edges());
        for (i, &t) in d.trussness.iter().enumerate() {
            // trussness ∈ [2, support + 2]
            prop_assert!(t >= 2);
            prop_assert!(u64::from(t) <= sup[i] + 2);
        }
        // Edges of the k-truss each have >= k-2 triangles *within the
        // k-truss subgraph* — check for the maximum truss level.
        let k = d.max_truss();
        if k >= 3 {
            let sub = EdgeList::new(el.num_vertices, d.truss_edges(k)).simplify();
            let sub_sup = truss::edge_supports(&sub).unwrap();
            for (&e, &s) in sub.edges.iter().zip(&sub_sup) {
                prop_assert!(s >= u64::from(k) - 2, "edge {e:?} support {s} in {k}-truss");
            }
        }
    }

    #[test]
    fn partition_maps_are_consistent(n in 0usize..200, p in 1usize..17) {
        let b = tc_graph::Block1D::new(n, p);
        let c = tc_graph::Cyclic1D::new(n, p);
        for v in 0..n as u32 {
            prop_assert!(b.owner(v) < p);
            prop_assert_eq!(c.global(c.owner(v), c.local(v)), v);
        }
        let total: usize = (0..p).map(|r| c.count(r)).sum();
        prop_assert_eq!(total, n);
    }
}
