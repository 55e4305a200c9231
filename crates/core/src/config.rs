//! Algorithm configuration and optimization toggles.
//!
//! Every §5.2 optimization can be switched off independently so the
//! §7.3 ablation experiments can quantify exactly what each one buys.

/// Triangle enumeration rule (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enumeration {
    /// ⟨i,j,k⟩ — tasks from the non-zeros of `U`; hashes the smaller
    /// endpoint's adjacency. Kept for the ablation (§7.3 measured it
    /// 72.8 % slower).
    Ijk,
    /// ⟨j,i,k⟩ — tasks from the non-zeros of `L`; hashes the larger
    /// endpoint's adjacency and reuses the map across the row. The
    /// paper's default.
    Jik,
}

/// Which per-shift intersection kernel runs (see `crate::count`).
///
/// Both offer every hash row to the paper's collision-free direct map
/// first; they differ in what serves a row whose direct attempt
/// collides. Triangles, per-edge supports, `tasks`, `lookups`,
/// `inserts`, `direct_rows` and `probed_rows` are bit-identical under
/// both; `probes` and the `tct.kernel.*` tallies are what `Auto` moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStrategy {
    /// A colliding row is built into a collision-free packed bit row
    /// (`crate::bitmap`) and probed eight keys at a time where AVX2
    /// exists; the selection is made per row, by the collision. With
    /// [`TcConfig::direct_hash`] off there is no direct attempt to
    /// collide, and `Auto` runs exactly like [`KernelStrategy::Hash`].
    /// The default.
    Auto,
    /// The paper's kernel in full: direct mode, linear probing for
    /// colliding rows, every §5.2 toggle, the probe counts of
    /// Tables 2–4.
    Hash,
}

impl KernelStrategy {
    /// Environment variable consulted by the binaries (strict parse:
    /// garbage panics at construction, like the `MPS_*` family).
    pub const ENV: &'static str = "TC_KERNEL";

    /// Resolves [`KernelStrategy::ENV`] via the same strict rules as
    /// the `MPS_*` environment family: unset means `None`, anything
    /// set must parse or the process panics loudly naming the
    /// variable.
    pub fn from_env() -> Option<Self> {
        tc_mps::strict_env::<Self>(Self::ENV, "kernel strategy (auto|hash)")
    }
}

impl std::str::FromStr for KernelStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "auto" => Self::Auto,
            "hash" => Self::Hash,
            other => return Err(format!("unknown kernel strategy {other:?}")),
        })
    }
}

impl std::fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Auto => "auto",
            Self::Hash => "hash",
        })
    }
}

/// Knobs for [`crate::count_triangles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcConfig {
    /// Enumeration rule. Default ⟨j,i,k⟩.
    pub enumeration: Enumeration,
    /// Doubly-sparse traversal: iterate only non-empty task rows
    /// (§5.2). Default on.
    pub doubly_sparse: bool,
    /// Direct bitwise-AND hashing for collision-free rows (§5.2).
    /// Default on.
    pub direct_hash: bool,
    /// Reverse traversal of the probe row with early break (§5.2
    /// "eliminating unnecessary intersection operations"). Default on.
    pub reverse_early_break: bool,
    /// Zero-copy operand pipeline: post the next shift/panel exchange
    /// before computing the current step, compute against borrowed
    /// blob views, and forward pass-through operands without
    /// re-serializing (§5.2 "reducing overheads associated with
    /// communication"). Off = the synchronous
    /// deserialize-compute-reserialize schedule, kept for ablation.
    /// Default on.
    pub overlap_shifts: bool,
    /// Per-shift intersection kernel. Default [`KernelStrategy::Auto`];
    /// [`KernelStrategy::Hash`] is the paper's kernel, which
    /// [`TcConfig::paper`] and the ablation baseline pin.
    pub kernel: KernelStrategy,
}

impl Default for TcConfig {
    fn default() -> Self {
        Self {
            enumeration: Enumeration::Jik,
            doubly_sparse: true,
            direct_hash: true,
            reverse_early_break: true,
            overlap_shifts: true,
            kernel: KernelStrategy::Auto,
        }
    }
}

impl TcConfig {
    /// The paper's full configuration: all §5.2 optimizations on, and
    /// the paper's own kernel, so every `paper/*` and §7.3 ablation row
    /// keeps running — and reporting the probe counts of — the routine
    /// the paper measured.
    pub fn paper() -> Self {
        Self { kernel: KernelStrategy::Hash, ..Self::default() }
    }

    /// Everything off: the unoptimized 2D baseline used as the
    /// ablation's reference point.
    pub fn unoptimized() -> Self {
        Self {
            enumeration: Enumeration::Jik,
            doubly_sparse: false,
            direct_hash: false,
            reverse_early_break: false,
            overlap_shifts: false,
            kernel: KernelStrategy::Hash,
        }
    }

    /// Whether a hash row that collides in the direct map is built
    /// into a bit row rather than probed: the [`KernelStrategy::Auto`]
    /// kernel, and only with `direct_hash` on — without a direct
    /// attempt there is no collision to dispatch on, so the
    /// `--no-direct-hash` ablation keeps measuring the paper's probing
    /// routine under either kernel.
    pub fn uses_bit_rows(&self) -> bool {
        self.kernel == KernelStrategy::Auto && self.direct_hash
    }

    /// Builder-style toggle.
    pub fn with_enumeration(mut self, e: Enumeration) -> Self {
        self.enumeration = e;
        self
    }

    /// Builder-style toggle.
    pub fn with_doubly_sparse(mut self, on: bool) -> Self {
        self.doubly_sparse = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_direct_hash(mut self, on: bool) -> Self {
        self.direct_hash = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_reverse_early_break(mut self, on: bool) -> Self {
        self.reverse_early_break = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_overlap_shifts(mut self, on: bool) -> Self {
        self.overlap_shifts = on;
        self
    }

    /// Builder-style strategy selection.
    pub fn with_kernel(mut self, k: KernelStrategy) -> Self {
        self.kernel = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = TcConfig::default();
        assert_eq!(c.with_kernel(KernelStrategy::Hash), TcConfig::paper());
        assert_eq!(c.enumeration, Enumeration::Jik);
        assert!(c.doubly_sparse && c.direct_hash && c.reverse_early_break);
    }

    #[test]
    fn builders_toggle_independently() {
        let c = TcConfig::default().with_enumeration(Enumeration::Ijk).with_doubly_sparse(false);
        assert_eq!(c.enumeration, Enumeration::Ijk);
        assert!(!c.doubly_sparse);
        assert!(c.direct_hash);
    }

    #[test]
    fn unoptimized_disables_all() {
        let c = TcConfig::unoptimized();
        assert!(!c.doubly_sparse && !c.direct_hash && !c.reverse_early_break);
        assert!(!c.overlap_shifts);
    }

    #[test]
    fn overlap_toggle() {
        assert!(TcConfig::default().overlap_shifts);
        assert!(!TcConfig::default().with_overlap_shifts(false).overlap_shifts);
    }

    #[test]
    fn kernel_strategy_parses_and_displays() {
        for (s, k) in [("auto", KernelStrategy::Auto), ("hash", KernelStrategy::Hash)] {
            assert_eq!(s.parse::<KernelStrategy>().unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        for gone in ["merge", "bitmap", "simd"] {
            assert!(gone.parse::<KernelStrategy>().is_err(), "{gone}");
        }
        assert!("".parse::<KernelStrategy>().is_err());
        assert!("Auto".parse::<KernelStrategy>().is_err(), "strict: no case folding");
    }

    #[test]
    fn kernel_defaults() {
        assert_eq!(TcConfig::default().kernel, KernelStrategy::Auto);
        // The paper rows and the ablation baseline pin the paper's kernel.
        assert_eq!(TcConfig::paper().kernel, KernelStrategy::Hash);
        assert_eq!(TcConfig::unoptimized().kernel, KernelStrategy::Hash);
        let c = TcConfig::paper().with_kernel(KernelStrategy::Auto);
        assert_eq!(c.kernel, KernelStrategy::Auto);
        assert!(c.direct_hash, "strategy choice leaves the other knobs alone");
        assert!(c.uses_bit_rows() && !c.with_direct_hash(false).uses_bit_rows());
        assert!(!TcConfig::paper().uses_bit_rows());
    }
}
