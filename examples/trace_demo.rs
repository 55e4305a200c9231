//! Trace demo: run the 2D triangle counter on an RMAT graph with the
//! execution recorder enabled, export a Chrome trace-event file, and
//! print the analyzer's critical-path report.
//!
//! Run with: `cargo run --release --example trace_demo`
//!
//! Then open `trace_demo.trace.json` in Perfetto (ui.perfetto.dev)
//! or chrome://tracing — one lane per rank, with preprocessing
//! phases, Cannon shifts, and collectives as nested spans.

use tc_core::{run, Request, TcConfig};
use tc_gen::{rmat, RmatParams};
use tc_mps::{Launch, UniverseConfig};
use tc_trace::{analysis, chrome, TraceSession};

fn main() {
    // A scale-12 RMAT graph: 4096 vertices, ~32k edge samples with a
    // skewed (Graph500) degree distribution — enough work that the
    // per-shift spans are visibly uneven across ranks.
    let graph = rmat(12, 8, RmatParams::GRAPH500, 42).simplify();
    println!("graph: {} vertices, {} edges", graph.num_vertices, graph.num_edges());

    // Begin a session: this opens the global recorder gate. Every
    // rank thread the universe spawns is registered with a lane, and
    // the instrumented code paths (phases, shifts, sends/recvs,
    // collectives) start recording.
    let session = TraceSession::begin();

    // The launch says where the ranks run and what they are bound to:
    // 16 threads, each recording into this session.
    let ucfg = UniverseConfig { trace: Some(session.handle()), ..UniverseConfig::default() };
    let result = run(Request::new(&graph, &TcConfig::default()), Launch::threads(16, &ucfg))
        .expect("distributed run failed");
    println!("triangles (2D, 16 ranks): {}", result.triangles);

    // Finish drains every rank's ring buffer into one time-sorted
    // event list.
    let trace = session.finish();
    println!("recorded {} events ({} dropped)", trace.events.len(), trace.dropped);

    // Consumer 1: the Chrome trace-event exporter.
    let path = std::path::Path::new("trace_demo.trace.json");
    chrome::write_chrome_json(&trace, path).expect("write trace");
    println!("wrote {} — open it at ui.perfetto.dev", path.display());

    // Consumer 2: the analyzer. Its per-phase critical paths are the
    // trace-derived counterpart of `TcResult::modeled_*`: the slowest
    // rank's CPU per phase, and per shift the slowest rank's compute.
    let analysis = analysis::analyze(&trace).expect("traced run recorded events");
    print!("{}", analysis.report());
    println!(
        "modeled   : ppt {:.3}s, tct {:.3}s (from RankMetrics)",
        result.modeled_ppt_time().as_secs_f64(),
        result.modeled_tct_time().as_secs_f64(),
    );
    println!(
        "from trace: ppt {:.3}s, tct {:.3}s",
        analysis.ppt_critical_path_s(),
        analysis.tct_critical_path_s(),
    );
}
