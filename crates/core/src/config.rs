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

/// Which set-intersection strategy the per-shift kernel uses for each
/// task (see `crate::intersect`).
///
/// Whatever the strategy, the row is always loaded into the
/// [`crate::hashmap::IntersectMap`] first — its mode decision
/// (direct vs probing) both gates the fast strategies and keeps the
/// deterministic insert/row-mode counters identical across strategies.
/// Merge and bitmap only ever replace *direct-mode* probes (which cost
/// zero probe steps), so every legacy counter — triangles, supports,
/// tasks, probes, lookups — is bit-identical under all four settings;
/// rows that fall back to probing mode take the hash path regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStrategy {
    /// The fastest measured plan for each row. With the division-free
    /// direct-map probe that is the hash plan on every row of every
    /// dataset × grid in the EXPERIMENTS.md sweep, so `Auto` currently
    /// resolves exactly like [`KernelStrategy::Hash`]; it stays a
    /// separate setting so a plan that starts winning somewhere can
    /// re-enter the default without touching callers. The default.
    Auto,
    /// Always the paper's hash probe.
    Hash,
    /// Vectorized sorted-merge for every direct-mode row.
    Merge,
    /// Packed bit rows for every direct-mode row.
    Bitmap,
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
        tc_mps::strict_env::<Self>(Self::ENV, "kernel strategy (auto|hash|merge|bitmap)")
    }
}

impl std::str::FromStr for KernelStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "auto" => Self::Auto,
            "hash" => Self::Hash,
            "merge" => Self::Merge,
            "bitmap" => Self::Bitmap,
            other => return Err(format!("unknown kernel strategy {other:?}")),
        })
    }
}

impl std::fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Auto => "auto",
            Self::Hash => "hash",
            Self::Merge => "merge",
            Self::Bitmap => "bitmap",
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
    /// Set-intersection strategy for the per-shift kernel. Default
    /// [`KernelStrategy::Auto`]; [`KernelStrategy::Hash`] is the
    /// pre-adaptive behavior kept for the ablation.
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
    /// The paper's full configuration (all optimizations on).
    pub fn paper() -> Self {
        Self::default()
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
        assert_eq!(c, TcConfig::paper());
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
        for (s, k) in [
            ("auto", KernelStrategy::Auto),
            ("hash", KernelStrategy::Hash),
            ("merge", KernelStrategy::Merge),
            ("bitmap", KernelStrategy::Bitmap),
        ] {
            assert_eq!(s.parse::<KernelStrategy>().unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        assert!("simd".parse::<KernelStrategy>().is_err());
        assert!("".parse::<KernelStrategy>().is_err());
        assert!("Auto".parse::<KernelStrategy>().is_err(), "strict: no case folding");
    }

    #[test]
    fn kernel_defaults() {
        assert_eq!(TcConfig::default().kernel, KernelStrategy::Auto);
        // The ablation baseline pins the pre-adaptive kernel.
        assert_eq!(TcConfig::unoptimized().kernel, KernelStrategy::Hash);
        let c = TcConfig::paper().with_kernel(KernelStrategy::Bitmap);
        assert_eq!(c.kernel, KernelStrategy::Bitmap);
        assert!(c.direct_hash, "strategy choice leaves the other knobs alone");
    }
}
