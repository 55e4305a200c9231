//! Minimal command-line parsing shared by the experiment binaries
//! (kept dependency-free: the offline crate set has no argument
//! parser, and the flags are few).

use tc_gen::Preset;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Base dataset scale (log2 vertices of the largest instance).
    pub scale: u32,
    /// Rank sweep.
    pub ranks: Vec<usize>,
    /// Restrict to one preset, if given.
    pub preset: Option<Preset>,
    /// Generator seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional JSON-lines run-report path.
    pub json: Option<String>,
    /// Optional Chrome trace-event output path: when set, every
    /// distributed run of the experiment records into one trace file.
    pub trace: Option<String>,
    /// Optional metrics-snapshot output path: when set, every
    /// distributed run appends its full per-rank `tc-metrics-v1`
    /// snapshot as one JSON line.
    pub metrics: Option<String>,
    /// Measured repetitions per configuration (≥ 1). Timings in the
    /// emitted `tc-run-v2` record summarize all tries; deterministic
    /// counters must agree across tries exactly.
    pub tries: u64,
    /// Discarded warm-up repetitions run before the measured tries.
    pub warmup: u64,
    /// Intersection-kernel strategy override for the 2D/SUMMA runs.
    /// `None` keeps each experiment's own default. Seeded by the
    /// `TC_KERNEL` environment variable (strict parse) in [`ExpArgs::parse`];
    /// an explicit `--kernel` flag wins over the environment.
    pub kernel: Option<tc_core::KernelStrategy>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 13,
            ranks: crate::DEFAULT_RANKS.to_vec(),
            preset: None,
            seed: tc_gen::DEFAULT_SEED,
            csv: None,
            json: None,
            trace: None,
            metrics: None,
            tries: 1,
            warmup: 0,
            kernel: None,
        }
    }
}

/// Strict non-negative integer parse, mirroring the `MPS_*` env
/// family: digits only — rejects empty strings, signs, whitespace and
/// anything non-numeric.
fn parse_count(flag: &str, v: &str) -> Result<u64, String> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad {flag}: expected a non-negative integer, got {v:?}"));
    }
    v.parse().map_err(|e| format!("bad {flag}: {e}"))
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(mut a) => {
                // The flag wins; TC_KERNEL fills the gap (strict: a
                // garbage value panics loudly naming the variable).
                if a.kernel.is_none() {
                    a.kernel = tc_core::KernelStrategy::from_env();
                }
                a
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: <bin> [--scale N] [--ranks a,b,c] [--preset NAME] \
                     [--seed S] [--csv PATH] [--json PATH] [--trace PATH] \
                     [--metrics PATH] [--tries N] [--warmup K] \
                     [--kernel auto|hash]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => {
                    out.scale =
                        value("--scale")?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--seed" => {
                    out.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--ranks" => {
                    let v = value("--ranks")?;
                    out.ranks = v
                        .split(',')
                        .map(|s| s.trim().parse::<usize>().map_err(|e| format!("bad rank: {e}")))
                        .collect::<Result<_, _>>()?;
                    for &p in &out.ranks {
                        if tc_mps::perfect_square_side(p).is_none() {
                            return Err(format!("rank count {p} is not a perfect square"));
                        }
                    }
                }
                "--preset" => {
                    let name = value("--preset")?;
                    out.preset = Some(
                        Preset::lookup(&name)?.ok_or_else(|| format!("unknown preset {name:?}"))?,
                    );
                }
                "--csv" => out.csv = Some(value("--csv")?),
                "--json" => out.json = Some(value("--json")?),
                "--trace" => out.trace = Some(value("--trace")?),
                "--metrics" => out.metrics = Some(value("--metrics")?),
                "--tries" => {
                    out.tries = parse_count("--tries", &value("--tries")?)?;
                    if out.tries == 0 {
                        return Err("bad --tries: need at least one measured try".into());
                    }
                }
                "--warmup" => out.warmup = parse_count("--warmup", &value("--warmup")?)?,
                "--kernel" => out.kernel = Some(value("--kernel")?.parse()?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// The paper configuration (the paper's `hash` kernel) with this
    /// invocation's kernel override applied — the base config of the
    /// `paper/*` and §7.3 ablation rows.
    pub fn base_config(&self) -> tc_core::TcConfig {
        self.overridden(tc_core::TcConfig::paper())
    }

    /// The library default (the `auto` kernel) with this invocation's
    /// kernel override applied — what the `default` rows run.
    pub fn default_config(&self) -> tc_core::TcConfig {
        self.overridden(tc_core::TcConfig::default())
    }

    fn overridden(&self, cfg: tc_core::TcConfig) -> tc_core::TcConfig {
        self.kernel.map_or(cfg, |k| cfg.with_kernel(k))
    }

    /// The datasets this invocation covers: the single `--preset`, or
    /// the Table 1 testbed at `--scale`.
    pub fn datasets(&self) -> Vec<Preset> {
        match self.preset {
            Some(p) => vec![p],
            None => tc_gen::table1_testbed(self.scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 13);
        assert_eq!(a.ranks, crate::DEFAULT_RANKS);
        assert!(a.preset.is_none());
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--scale",
            "10",
            "--ranks",
            "4,9,16",
            "--preset",
            "g500-s9",
            "--seed",
            "7",
            "--csv",
            "/tmp/x.csv",
            "--json",
            "/tmp/x.json",
            "--trace",
            "/tmp/x.trace.json",
            "--metrics",
            "/tmp/x.metrics.json",
            "--tries",
            "5",
            "--warmup",
            "1",
        ])
        .unwrap();
        assert_eq!(a.scale, 10);
        assert_eq!(a.ranks, vec![4, 9, 16]);
        assert_eq!(a.preset, Some(Preset::G500 { scale: 9 }));
        assert_eq!(a.seed, 7);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(a.trace.as_deref(), Some("/tmp/x.trace.json"));
        assert_eq!(a.metrics.as_deref(), Some("/tmp/x.metrics.json"));
        assert_eq!((a.tries, a.warmup), (5, 1));
    }

    #[test]
    fn tries_and_warmup_default_to_single_cold_run() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.tries, a.warmup), (1, 0));
    }

    #[test]
    fn tries_and_warmup_parse_strictly() {
        assert!(parse(&["--tries", "0"]).is_err());
        assert!(parse(&["--tries", ""]).is_err());
        assert!(parse(&["--tries", "+3"]).is_err());
        assert!(parse(&["--tries", "-1"]).is_err());
        assert!(parse(&["--tries", "3x"]).is_err());
        assert!(parse(&["--tries", " 3"]).is_err());
        assert!(parse(&["--tries"]).is_err());
        assert!(parse(&["--warmup", "abc"]).is_err());
        assert!(parse(&["--warmup", "1.5"]).is_err());
        let a = parse(&["--tries", "3", "--warmup", "0"]).unwrap();
        assert_eq!((a.tries, a.warmup), (3, 0));
    }

    #[test]
    fn kernel_flag_parses_strictly_and_feeds_base_config() {
        use tc_core::KernelStrategy;
        let a = parse(&[]).unwrap();
        assert_eq!(a.kernel, None);
        assert_eq!(a.base_config(), tc_core::TcConfig::paper());
        assert_eq!(a.default_config(), tc_core::TcConfig::default());
        let a = parse(&["--kernel", "auto"]).unwrap();
        assert_eq!(a.kernel, Some(KernelStrategy::Auto));
        assert_eq!(a.base_config().kernel, KernelStrategy::Auto);
        let a = parse(&["--kernel", "hash"]).unwrap();
        assert_eq!(a.default_config().kernel, KernelStrategy::Hash);
        assert!(parse(&["--kernel"]).is_err());
        assert!(parse(&["--kernel", "merge"]).is_err());
        assert!(parse(&["--kernel", "bitmap"]).is_err());
        assert!(parse(&["--kernel", "Hash"]).is_err(), "strict: no case folding");
    }

    #[test]
    fn rejects_non_square_ranks() {
        assert!(parse(&["--ranks", "4,10"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_preset() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--preset", "nope"]).is_err());
        assert!(parse(&["--scale"]).is_err());
    }

    #[test]
    fn datasets_prefers_explicit_preset() {
        let a = parse(&["--preset", "g500-s8"]).unwrap();
        assert_eq!(a.datasets().len(), 1);
        let b = parse(&["--scale", "11"]).unwrap();
        assert_eq!(b.datasets().len(), 6);
    }
}
