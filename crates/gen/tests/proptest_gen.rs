//! Property tests of the generators: determinism, bounds, and the
//! degree-shape contracts the presets promise.

use proptest::prelude::*;
use tc_gen::{graph500, rmat, watts_strogatz, Preset, RmatParams, MAX_SCALE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rmat_bounds_and_determinism(scale in 3u32..10, ef in 1usize..8, seed in any::<u64>()) {
        let a = rmat(scale, ef, RmatParams::GRAPH500, seed);
        let b = rmat(scale, ef, RmatParams::GRAPH500, seed);
        prop_assert_eq!(&a, &b);
        let n = 1usize << scale;
        prop_assert_eq!(a.num_vertices, n);
        prop_assert_eq!(a.num_edges(), ef * n);
        prop_assert!(a.edges.iter().all(|&(u, v)| (u as usize) < n && (v as usize) < n));
        // Simplification never grows the edge set.
        prop_assert!(a.simplify().num_edges() <= ef * n);
    }

    #[test]
    fn er_density_close_to_requested(scale in 8u32..12, seed in any::<u64>()) {
        // Sparse regime: m/C(n,2) <= 6.3 %, so duplicate collisions
        // (birthday effect) cost at most a few percent of the samples.
        let n = 1usize << scale;
        let m = 8 * n;
        let el = tc_gen::er::gnm(n, m, seed).simplify();
        prop_assert!(el.num_edges() > m * 9 / 10, "{} of {m}", el.num_edges());
        prop_assert!(el.num_edges() <= m);
    }

    #[test]
    fn ws_lattice_degree_regular(k in 1usize..5, seed in any::<u64>()) {
        let n = 12 * k; // comfortably above 2k+1
        let el = watts_strogatz(n, k, 0.0, seed).simplify();
        prop_assert!(el.degrees().iter().all(|&d| d as usize == 2 * k));
    }

    #[test]
    fn preset_names_roundtrip(scale in 3u32..20) {
        for p in [
            Preset::G500 { scale },
            Preset::TwitterLike { scale },
            Preset::FriendsterLike { scale },
        ] {
            prop_assert_eq!(Preset::parse(&p.name()), Some(p));
            prop_assert_eq!(p.scale(), scale);
        }
    }

    /// Every family accepts exactly the scales `0..=MAX_SCALE`; the
    /// first scale above is an error, not a wrapped or panicking build.
    #[test]
    fn preset_scales_stop_at_the_limit(scale in 0u32..100) {
        for family in ["g500-s", "twitter-like-", "friendster-like-"] {
            for s in [scale, MAX_SCALE, MAX_SCALE + 1] {
                let name = format!("{family}{s}");
                let got = Preset::lookup(&name);
                if s <= MAX_SCALE {
                    prop_assert_eq!(got.map(|p| p.map(|p| p.scale())), Ok(Some(s)));
                } else {
                    prop_assert!(got.unwrap_err().contains(&MAX_SCALE.to_string()), "{}", name);
                }
            }
        }
    }

    #[test]
    fn g500_skew_holds_across_seeds(seed in any::<u64>()) {
        let el = graph500(9, seed).simplify();
        let deg = el.degrees();
        let n = deg.len();
        let head: u64 = deg[..n / 4].iter().map(|&d| d as u64).sum();
        let tail: u64 = deg[3 * n / 4..].iter().map(|&d| d as u64).sum();
        prop_assert!(head > tail, "head {head} <= tail {tail}");
    }
}
