//! End-to-end dataset pipeline: generate → persist → reload → count.
//!
//! Demonstrates the I/O layer (text, binary, and Matrix Market
//! formats) feeding the distributed counter — the workflow a user with
//! on-disk graphs (SuiteSparse / Graph Challenge downloads) follows.
//!
//! Run with: `cargo run --release --example dataset_pipeline`

use tc_core::{count_triangles, TcConfig};
use tc_gen::rmat::{rmat, RmatParams};
use tc_graph::io;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("tc-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // 1. Generate and simplify a skewed RMAT graph.
    let graph = rmat(11, 8, RmatParams::GRAPH500, 99).simplify();
    println!("generated: {} vertices, {} edges", graph.num_vertices, graph.num_edges());

    // 2. Persist in both interchange formats.
    let bin_path = dir.join("graph.bin");
    let txt_path = dir.join("graph.txt");
    io::write_binary_edges_path(&graph, &bin_path)?;
    io::write_text_edges(&graph, std::fs::File::create(&txt_path)?)?;
    println!(
        "wrote {} ({} bytes) and {} ({} bytes)",
        bin_path.display(),
        std::fs::metadata(&bin_path)?.len(),
        txt_path.display(),
        std::fs::metadata(&txt_path)?.len(),
    );

    // 3. Reload from binary, verify the round trip.
    let reloaded = io::read_binary_edges_path(&bin_path)?;
    assert_eq!(reloaded, graph);
    // The text format carries edges only: trailing isolated vertices
    // (RMAT leaves some) do not survive it, the edges do.
    let from_text = io::read_text_edges_path(&txt_path)?.simplify();
    assert_eq!(from_text.edges, graph.edges);
    println!("round trips verified");

    // 4. Count triangles on a 2x2 grid and cross-check.
    let result = count_triangles(&reloaded, 4, &TcConfig::default());
    let serial = tc_baselines::serial::count_default(&graph);
    assert_eq!(result.triangles, serial);
    println!("triangles: {} (distributed == serial)", result.triangles);

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
