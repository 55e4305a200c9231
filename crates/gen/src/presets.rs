//! Dataset presets mirroring the paper's Table 1 at laptop scale.
//!
//! | Paper dataset | Stand-in | Rationale |
//! |---|---|---|
//! | g500-s26 … s29 | `g500-sNN` (any scale) | same Graph500 RMAT generator, smaller scale |
//! | twitter | `twitter-like` | preferential attachment: heavy skew, triangle-rich |
//! | friendster | `friendster-like` | uniform random: wedge-rich, triangle-poor |
//!
//! The paper generates its synthetic inputs in-process "prior to
//! calling our triangle counting routine. This way, we avoid reading
//! the big graphs from the disk" (§6.1) — [`Preset::build`] does the same.

use tc_graph::EdgeList;

use crate::ba::barabasi_albert;
use crate::er::gnm;
use crate::rmat::graph500;

/// Default seed used by the experiment harness.
pub const DEFAULT_SEED: u64 = 42;

/// Largest scale every preset family can build with `u32` vertex ids:
/// `2^31` vertices. At 32, G(n, m) and Barabási–Albert need `n = 2^32`
/// vertices, one more than `u32` counts.
pub const MAX_SCALE: u32 = 31;

/// A parsed dataset specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Graph500 RMAT at the given scale (`n = 2^scale`, edge factor 16).
    G500 {
        /// log2 of the vertex count.
        scale: u32,
    },
    /// Skewed, triangle-rich social graph (`n = 2^scale`, ~28 edges/vertex).
    TwitterLike {
        /// log2 of the vertex count.
        scale: u32,
    },
    /// Uniform, triangle-poor graph (`n = 2^scale`, 15 edges/vertex sampled).
    FriendsterLike {
        /// log2 of the vertex count.
        scale: u32,
    },
}

impl Preset {
    /// Parses names like `g500-s16`, `twitter-like-14`, `friendster-like-14`;
    /// `None` for anything [`Preset::lookup`] does not accept.
    pub fn parse(name: &str) -> Option<Preset> {
        Preset::lookup(name).ok().flatten()
    }

    /// Like [`Preset::parse`], but tells a name that is no preset
    /// (`Ok(None)`, e.g. a file path) from a preset at a scale above
    /// [`MAX_SCALE`] (an error naming the limit).
    pub fn lookup(name: &str) -> Result<Option<Preset>, String> {
        type Family = (&'static str, fn(u32) -> Preset);
        const FAMILIES: [Family; 3] = [
            ("g500-s", |scale| Preset::G500 { scale }),
            ("twitter-like-", |scale| Preset::TwitterLike { scale }),
            ("friendster-like-", |scale| Preset::FriendsterLike { scale }),
        ];
        let Some((digits, make)) =
            FAMILIES.iter().find_map(|&(prefix, make)| Some((name.strip_prefix(prefix)?, make)))
        else {
            return Ok(None);
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(None);
        }
        match digits.parse() {
            Ok(scale) if scale <= MAX_SCALE => Ok(Some(make(scale))),
            _ => Err(format!(
                "preset {name}: scale {digits} is above {MAX_SCALE}, the largest the \
                 generators can build with u32 vertex ids"
            )),
        }
    }

    /// Canonical name (inverse of [`Preset::parse`]).
    pub fn name(&self) -> String {
        match self {
            Preset::G500 { scale } => format!("g500-s{scale}"),
            Preset::TwitterLike { scale } => format!("twitter-like-{scale}"),
            Preset::FriendsterLike { scale } => format!("friendster-like-{scale}"),
        }
    }

    /// log2 of the vertex count.
    pub fn scale(&self) -> u32 {
        match *self {
            Preset::G500 { scale }
            | Preset::TwitterLike { scale }
            | Preset::FriendsterLike { scale } => scale,
        }
    }

    /// Generates the dataset (already simplified to an undirected
    /// simple graph). Deterministic per `(preset, seed)`.
    pub fn build(&self, seed: u64) -> EdgeList {
        assert!(self.scale() <= MAX_SCALE, "{} is above MAX_SCALE", self.name());
        match *self {
            Preset::G500 { scale } => graph500(scale, seed).simplify(),
            // Densities follow Table 1: twitter averages ~58 edges per
            // vertex (attach 28 → mean degree ≈ 56), friendster ~30
            // (15 samples per vertex → mean degree ≈ 30).
            Preset::TwitterLike { scale } => barabasi_albert(1usize << scale, 28, seed).simplify(),
            Preset::FriendsterLike { scale } => {
                let n = 1usize << scale;
                gnm(n, 15 * n, seed).simplify()
            }
        }
    }
}

/// The six-dataset testbed of Table 1, scaled so the *largest* g500
/// instance has `2^max_scale` vertices (the paper spans four g500
/// scales; we keep that structure).
pub fn table1_testbed(max_scale: u32) -> Vec<Preset> {
    assert!(max_scale >= 3, "need at least scale 3");
    vec![
        Preset::TwitterLike { scale: max_scale.saturating_sub(1) },
        Preset::FriendsterLike { scale: max_scale },
        Preset::G500 { scale: max_scale - 3 },
        Preset::G500 { scale: max_scale - 2 },
        Preset::G500 { scale: max_scale - 1 },
        Preset::G500 { scale: max_scale },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for name in ["g500-s16", "twitter-like-12", "friendster-like-9"] {
            let p = Preset::parse(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert_eq!(Preset::parse("g500-s16").unwrap(), Preset::G500 { scale: 16 });
        assert!(Preset::parse("unknown").is_none());
        assert!(Preset::parse("g500-sXX").is_none());
        assert_eq!(Preset::lookup("g500-sXX"), Ok(None));
    }

    #[test]
    fn scales_above_the_limit_are_errors_naming_it() {
        for name in ["g500-s32", "friendster-like-33", "twitter-like-64", "g500-s99999999999"] {
            let e = Preset::lookup(name).unwrap_err();
            assert!(e.contains(name) && e.contains("31"), "{e}");
            assert_eq!(Preset::parse(name), None);
        }
    }

    #[test]
    fn build_is_simplified_and_deterministic() {
        let p = Preset::G500 { scale: 8 };
        let a = p.build(1);
        assert!(a.is_simple());
        assert_eq!(a, p.build(1));
    }

    #[test]
    fn testbed_has_six_datasets() {
        let tb = table1_testbed(12);
        assert_eq!(tb.len(), 6);
        assert_eq!(tb[5], Preset::G500 { scale: 12 });
    }

    #[test]
    fn friendster_like_has_fewer_triangle_closures_than_twitter_like() {
        // Cheap proxy: transitivity-relevant shape — twitter-like must
        // have much higher max degree relative to average.
        let t = Preset::TwitterLike { scale: 10 }.build(3);
        let f = Preset::FriendsterLike { scale: 10 }.build(3);
        let tmax = *t.degrees().iter().max().unwrap() as f64;
        let fmax = *f.degrees().iter().max().unwrap() as f64;
        assert!(tmax > 2.0 * fmax, "twitter max {tmax} friendster max {fmax}");
    }
}
