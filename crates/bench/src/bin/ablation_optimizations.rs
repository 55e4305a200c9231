//! §7.3 — quantifying the gains of the optimizations: triangle
//! counting time with each §5.2 optimization disabled in turn, plus
//! the ⟨j,i,k⟩ vs ⟨i,j,k⟩ enumeration comparison. The paper reports,
//! on g500-s29: doubly-sparse −10 %/−15 % (16/100 ranks), modified
//! hashing −1.2 %/−8.7 %, and ⟨j,i,k⟩ beating ⟨i,j,k⟩ by 72.8 %.

use tc_bench::args::ExpArgs;
use tc_bench::build_dataset;
use tc_bench::secs;
use tc_bench::table::Table;
use tc_core::{Enumeration, KernelStrategy, TcConfig};
use tc_gen::Preset;

fn main() {
    let mut args = ExpArgs::parse();
    let tscope = tc_bench::TraceScope::begin(args.trace.as_ref());
    let th = tscope.handle();
    if args.ranks == tc_bench::DEFAULT_RANKS {
        // The paper ablates at 16 and 100 ranks.
        args.ranks = vec![16, 100];
    }
    let preset = args.preset.unwrap_or(Preset::G500 { scale: args.scale });
    let el = build_dataset(preset, args.seed);
    let rs = tc_bench::RunScope::new(&args, th.as_ref(), &preset.name());

    // The §7.3 variants start from the paper configuration (the
    // paper's hash kernel) and honor the invocation's
    // --kernel/TC_KERNEL override; the kernel-hash row does not, so the
    // paper's kernel is always present (CI gates the default rows of
    // the same instance against it).
    let base = args.base_config();
    let variants: Vec<(&str, TcConfig)> = vec![
        ("all-optimizations", base),
        ("no-doubly-sparse", base.with_doubly_sparse(false)),
        ("no-direct-hash", base.with_direct_hash(false)),
        ("no-early-break", base.with_reverse_early_break(false)),
        ("enumeration-ijk", base.with_enumeration(Enumeration::Ijk)),
        ("no-overlap", base.with_overlap_shifts(false)),
        ("unoptimized", TcConfig::unoptimized()),
        ("kernel-hash", TcConfig::paper().with_kernel(KernelStrategy::Hash)),
    ];

    for &p in &args.ranks {
        let mut t = Table::new(
            &format!("Ablation (sec. 7.3): {} at {p} ranks", preset.name()),
            &["variant", "tct(s)", "vs-all-opt-%", "lookups", "probes", "direct-rows"],
        );
        let mut base: Option<f64> = None;
        for (name, cfg) in &variants {
            let r = rs.count_2d(&el, p, cfg, name);
            let tct = r.tct_time().as_secs_f64();
            let b = *base.get_or_insert(tct);
            t.row(vec![
                name.to_string(),
                secs(r.tct_time()),
                format!("{:+.1}%", 100.0 * (tct - b) / b.max(1e-12)),
                r.total_lookups().to_string(),
                r.total_probes().to_string(),
                r.ranks.iter().map(|m| m.direct_rows).sum::<u64>().to_string(),
            ]);
        }
        t.print();
        t.maybe_csv(&args.csv);
        t.maybe_json(&args.json);
    }
}
