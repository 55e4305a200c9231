//! # tc-bench — experiment harness
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the paper's evaluation section (see `src/bin/`), plus
//! Criterion micro-benchmarks of the hot kernels (see `benches/`).
//!
//! Every experiment binary accepts:
//!
//! - `--scale N` — log2 of the base dataset size (default 13; the
//!   paper's runs used 26–29, which do not fit a laptop),
//! - `--ranks a,b,c` — the rank sweep (must be perfect squares),
//! - `--preset NAME` — a single dataset instead of the full testbed,
//! - `--seed S` — generator seed,
//! - `--csv PATH` — also dump machine-readable rows,
//! - `--json PATH` — append each table as one JSON-lines record,
//! - `--trace PATH` — record every distributed run into one Chrome
//!   trace-event file (open in Perfetto / chrome://tracing),
//! - `--tries N` — measured repetitions per configuration; timings in
//!   the `tc-run-v2` report become mean/stddev/median summaries,
//! - `--warmup K` — discarded warm-up repetitions before measuring.

#![warn(missing_docs)]

pub mod args;
pub mod table;

use tc_gen::Preset;
use tc_graph::EdgeList;

/// The default rank sweep: perfect squares like the paper's 16…169
/// sweep, scaled down (thread oversubscription makes the largest grids
/// unrepresentative on a laptop; pass `--ranks` to extend).
pub const DEFAULT_RANKS: &[usize] = &[4, 9, 16, 25, 36, 49, 64];

/// Builds a dataset and reports basic facts while doing so.
pub fn build_dataset(preset: Preset, seed: u64) -> EdgeList {
    let t = std::time::Instant::now();
    let el = preset.build(seed);
    eprintln!(
        "# built {} : {} vertices, {} edges ({:.2?})",
        preset.name(),
        el.num_vertices,
        el.num_edges(),
        t.elapsed()
    );
    el
}

/// Formats a `Duration` in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// An experiment-scoped trace recorder: holds the [`tc_trace`]
/// session alive for the duration of the binary and exports the
/// Chrome trace file when dropped. With no `--trace` path this is a
/// no-op shell — the recorder gate stays closed and the instrumented
/// code paths cost one atomic load each.
pub struct TraceScope {
    session: Option<tc_trace::TraceSession>,
    path: Option<String>,
}

impl TraceScope {
    /// Starts recording when `path` is set; inert otherwise.
    pub fn begin(path: Option<&String>) -> Self {
        Self { session: path.map(|_| tc_trace::TraceSession::begin()), path: path.cloned() }
    }

    /// The session's handle for [`RunScope::new`] (`None` when inert).
    pub fn handle(&self) -> Option<tc_trace::TraceHandle> {
        self.session.as_ref().map(|s| s.handle())
    }
}

/// Repeats a serial (single-process) measurement honoring `--warmup`
/// and `--tries`: warm-up runs are discarded, each measured run's
/// wall time is sampled, and the samples summarize into one
/// [`tc_metrics::TimingStats`]. Returns the last run's output with
/// the summary. For distributed runs use [`RunScope`], which also
/// checks cross-try determinism.
pub fn timed_tries<T>(
    args: &args::ExpArgs,
    mut f: impl FnMut() -> T,
) -> (T, tc_metrics::TimingStats) {
    for _ in 0..args.warmup {
        f();
    }
    let tries = args.tries.max(1);
    let mut samples = Vec::with_capacity(tries as usize);
    let mut out = None;
    for _ in 0..tries {
        let t0 = std::time::Instant::now();
        out = Some(f());
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    let stats = tc_metrics::TimingStats::from_samples(&samples).expect("at least one try");
    (out.expect("at least one try"), stats)
}

/// Appends one line to a JSON-lines report file.
pub fn append_json_line(path: &str, line: &str) {
    use std::io::Write;
    let res = std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(|f| {
        let mut f = std::io::BufWriter::new(f);
        writeln!(f, "{line}")?;
        f.flush()
    });
    if let Err(e) = res {
        eprintln!("warning: failed to append to {path}: {e}");
    }
}

/// Per-dataset measurement context for the experiment binaries — the
/// shared n-try repeat-runner.
///
/// Each configuration launched through its methods first executes
/// `--warmup` discarded iterations (no tracing, no metrics), then
/// `--tries` measured iterations, each under its own fresh
/// `tc-metrics` session (only when `--json` or `--metrics` asks for
/// output — otherwise the registry gate stays closed and every
/// instrumentation point costs one relaxed atomic load). The measured
/// tries aggregate into one `tc-run-v2` record per configuration:
/// timings become [`tc_metrics::TimingStats`] summaries while
/// deterministic counters and the triangle count must agree across
/// tries exactly — any drift aborts the experiment. With `--metrics`,
/// every try additionally appends its full per-rank snapshot as one
/// JSON line.
pub struct RunScope<'a> {
    args: &'a args::ExpArgs,
    trace: Option<&'a tc_trace::TraceHandle>,
    dataset: String,
}

impl<'a> RunScope<'a> {
    /// A scope for runs over one dataset.
    pub fn new(
        args: &'a args::ExpArgs,
        trace: Option<&'a tc_trace::TraceHandle>,
        dataset: &str,
    ) -> Self {
        Self { args, trace, dataset: dataset.to_string() }
    }

    /// Runs `f` warmup+tries times, aggregates the measured tries and
    /// reports the pooled run record. Returns the last try's output.
    fn measured<T>(
        &self,
        algorithm: &str,
        config: &str,
        ranks: usize,
        triangles_of: impl Fn(&T) -> u64,
        mut f: impl FnMut(&tc_mps::UniverseConfig) -> T,
    ) -> T {
        let mut ucfg = tc_mps::UniverseConfig::default();
        for _ in 0..self.args.warmup {
            f(&ucfg);
        }
        ucfg.trace = self.trace.cloned();
        if self.args.json.is_none() && self.args.metrics.is_none() {
            let mut out = f(&ucfg);
            for _ in 1..self.args.tries {
                out = f(&ucfg);
            }
            return out;
        }
        let mut records = Vec::with_capacity(self.args.tries.max(1) as usize);
        let mut out = None;
        for _ in 0..self.args.tries.max(1) {
            let session = tc_metrics::MetricsSession::begin();
            ucfg.metrics = Some(session.handle());
            let t = f(&ucfg);
            let snap = session.finish();
            records.push(tc_metrics::RunRecord::from_snapshot(
                &self.dataset,
                algorithm,
                ranks as u64,
                config,
                triangles_of(&t),
                &snap,
            ));
            if let Some(path) = &self.args.metrics {
                append_json_line(path, &snap.to_json());
            }
            out = Some(t);
        }
        let rec = tc_metrics::RunRecord::aggregate(&records).unwrap_or_else(|e| {
            panic!(
                "non-deterministic repeats for {}/{algorithm}/p{ranks}/{config}: {e}",
                self.dataset
            )
        });
        if let Some(path) = &self.args.json {
            append_json_line(path, &rec.to_json_line());
        }
        out.expect("at least one measured try")
    }

    /// Measured 2D Cannon count under `cfg` (`config` names the
    /// configuration in the run record).
    pub fn count_2d(
        &self,
        el: &EdgeList,
        p: usize,
        cfg: &tc_core::TcConfig,
        config: &str,
    ) -> tc_core::TcResult {
        self.measured(
            "2d-cannon",
            config,
            p,
            |r: &tc_core::TcResult| r.triangles,
            |ucfg| {
                tc_core::run(tc_core::Request::new(el, cfg), tc_mps::Launch::threads(p, ucfg))
                    .unwrap_or_else(|e| panic!("{e}"))
            },
        )
    }

    /// Measured 2D count with the library default configuration — the
    /// `auto` kernel, unless the invocation's `--kernel`/`TC_KERNEL`
    /// overrides it. The run record key stays `default` either way:
    /// only `tct.probes` and the `tct.kernel.*` tallies can tell the
    /// two kernels apart.
    pub fn count_2d_default(&self, el: &EdgeList, p: usize) -> tc_core::TcResult {
        self.count_2d(el, p, &self.args.default_config(), "default")
    }

    /// Measured SUMMA count; the grid shape joins the config key.
    pub fn count_summa(
        &self,
        el: &EdgeList,
        grid: tc_core::SummaGrid,
        cfg: &tc_core::TcConfig,
        config: &str,
    ) -> tc_core::TcResult {
        let cfg_key = format!("{config}/{}x{}k{}", grid.pr, grid.pc, grid.panels);
        self.measured(
            "2d-summa",
            &cfg_key,
            grid.size(),
            |r: &tc_core::TcResult| r.triangles,
            |ucfg| {
                let launch = tc_mps::Launch::threads(grid.size(), ucfg);
                tc_core::run(tc_core::Request::new(el, cfg).summa(grid), launch)
                    .unwrap_or_else(|e| panic!("{e}"))
            },
        )
    }

    /// Measured AOP 1D baseline run.
    pub fn count_aop1d(&self, el: &EdgeList, p: usize) -> tc_baselines::Dist1dResult {
        self.measured(
            "aop1d",
            "default",
            p,
            |r: &tc_baselines::Dist1dResult| r.triangles,
            |ucfg| tc_baselines::count_aop1d(el, p, ucfg).unwrap_or_else(|e| panic!("{e}")),
        )
    }

    /// Measured push-based 1D baseline run.
    pub fn count_push1d(&self, el: &EdgeList, p: usize) -> tc_baselines::Dist1dResult {
        self.measured(
            "push1d",
            "default",
            p,
            |r: &tc_baselines::Dist1dResult| r.triangles,
            |ucfg| tc_baselines::count_push1d(el, p, ucfg).unwrap_or_else(|e| panic!("{e}")),
        )
    }

    /// Measured blocked-push 1D baseline run.
    pub fn count_psp1d(
        &self,
        el: &EdgeList,
        p: usize,
        num_super_blocks: usize,
    ) -> tc_baselines::Dist1dResult {
        self.measured(
            "psp1d",
            &format!("sb{num_super_blocks}"),
            p,
            |r: &tc_baselines::Dist1dResult| r.triangles,
            |ucfg| {
                tc_baselines::count_psp1d(el, p, num_super_blocks, ucfg)
                    .unwrap_or_else(|e| panic!("{e}"))
            },
        )
    }

    /// Measured wedge-checking baseline run.
    pub fn count_wedge(&self, el: &EdgeList, p: usize) -> tc_baselines::WedgeResult {
        self.measured(
            "wedge",
            "default",
            p,
            |r: &tc_baselines::WedgeResult| r.triangles,
            |ucfg| tc_baselines::count_wedge(el, p, ucfg).unwrap_or_else(|e| panic!("{e}")),
        )
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let (Some(session), Some(path)) = (self.session.take(), self.path.take()) {
            let trace = session.finish();
            match tc_trace::chrome::write_chrome_json(&trace, std::path::Path::new(&path)) {
                Ok(()) => eprintln!(
                    "# trace: {} events ({} dropped) -> {path}",
                    trace.events.len(),
                    trace.dropped
                ),
                Err(e) => eprintln!("warning: failed to write trace {path}: {e}"),
            }
        }
    }
}
