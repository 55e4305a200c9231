//! Shorthands over the one entry point (`tc_core::run`) for the
//! integration tests: each is a [`Request`] on in-process rank threads
//! bound to the given [`UniverseConfig`].

#![allow(dead_code)] // every test crate uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use tc_core::{run, EdgeSource, EdgeSupport, Request, SummaGrid, TcConfig, TcResult};
use tc_graph::io::{write_binary_edges_path, EdgeFile};
use tc_graph::EdgeList;
use tc_mps::{Launch, MpsResult, UniverseConfig};

/// A `.bin` of `el` in the temp directory, removed on drop.
pub struct TempBin {
    path: PathBuf,
    pub file: EdgeFile,
}

impl TempBin {
    pub fn new(el: &EdgeList) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name =
            format!("tc-test-{}-{}.bin", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let path = std::env::temp_dir().join(name);
        write_binary_edges_path(el, &path).expect("write the .bin");
        let file = EdgeFile::open(&path).expect("reopen the .bin");
        Self { path, file }
    }
}

impl Drop for TempBin {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The default launch binding: default deadline, no trace or metrics
/// session, chaos only if the environment asks for it.
pub const PLAIN: UniverseConfig =
    UniverseConfig { recv_timeout: None, trace: None, metrics: None, chaos: None };

/// The Cannon count on `p` ranks.
pub fn cannon<'a>(
    src: impl Into<EdgeSource<'a>>,
    p: usize,
    cfg: &'a TcConfig,
    ucfg: &UniverseConfig,
) -> MpsResult<TcResult> {
    run(Request::new(src, cfg), Launch::threads(p, ucfg))
}

/// [`cannon`] plus the per-edge supports, taken out of the result.
pub fn cannon_per_edge<'a>(
    src: impl Into<EdgeSource<'a>>,
    p: usize,
    cfg: &'a TcConfig,
    ucfg: &UniverseConfig,
) -> MpsResult<(TcResult, Vec<EdgeSupport>)> {
    let mut r = run(Request::new(src, cfg).per_edge(), Launch::threads(p, ucfg))?;
    let supports = r.supports.take().expect("rank 0 ran in this process");
    Ok((r, supports))
}

/// The SUMMA count on `grid`.
pub fn summa<'a>(
    src: impl Into<EdgeSource<'a>>,
    grid: SummaGrid,
    cfg: &'a TcConfig,
    ucfg: &UniverseConfig,
) -> MpsResult<TcResult> {
    run(Request::new(src, cfg).summa(grid), Launch::threads(grid.size(), ucfg))
}
