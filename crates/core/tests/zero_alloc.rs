//! Steady-state allocation audit for the zero-copy shift pipeline.
//!
//! The overlapped Cannon schedule claims that once the skew has placed
//! the first operand pair, a full rotation of the grid performs **no
//! heap allocation**: blobs circulate as refcounted buffers (a clone or
//! forward is a refcount bump), the kernel computes against
//! [`SparseBlockRef`] views borrowed straight from the wire bytes, and
//! the intersection map is pre-sized. This test rebuilds the steady
//! loop from the same public pieces (`Grid::shift_left_start` /
//! `shift_up_start`, `SparseBlockRef::from_blob`, `count_shift`) under
//! a counting global allocator and asserts that, after one warm-up
//! rotation (mailbox `VecDeque`s growing to capacity, `Arc` buffers
//! being created), the measured rotations allocate exactly nothing on
//! the rank thread.
//!
//! Tracing and metrics sessions are deliberately left off: the
//! instrumentation points are inert (one relaxed atomic load) in that
//! state, which is also the configuration perf runs care about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tc_core::blocks::{SparseBlock, SparseBlockRef};
use tc_core::count::count_shift;
use tc_core::intersect::KernelState;
use tc_core::TcConfig;
use tc_mps::{Grid, Universe};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn allocs_here() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Counts one allocation of `size` bytes on this thread; the first one
/// after arming prints its backtrace. `try_with`: allocation can happen
/// while a thread's TLS is being torn down, where `with` would panic.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ARMED.try_with(|c| c.set(false));
        eprintln!("ALLOC({size}) at:\n{}", std::backtrace::Backtrace::force_capture());
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A deterministic block whose contents vary with `salt`, so the
/// rotating operands are distinct rank to rank. Columns within a row
/// are distinct (the map rejects duplicate keys) and sorted by
/// construction.
fn mk_block(n: usize, q: usize, class: usize, salt: u32) -> SparseBlock {
    let rows = n / q;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for lr in 0..rows as u32 {
        let r = lr * q as u32 + class as u32;
        for j in 0..4u32 {
            // Offsets {0, 5, 10, 15} keep the four columns distinct.
            pairs.push((r, (salt + lr * 3 + j * 5) % n as u32));
        }
    }
    SparseBlock::from_pairs(rows, q, &mut pairs)
}

/// One full rotation of the steady-state loop: post the shift, compute
/// against borrowed views of the current blobs, wait the shift in.
/// After `q` steps the operands are back home, so successive rounds see
/// identical data and must produce identical counts.
fn rotate_once(
    grid: &Grid<'_>,
    task: &SparseBlock,
    u_blob: &mut bytes::Bytes,
    l_blob: &mut bytes::Bytes,
    ks: &mut KernelState,
    cfg: &TcConfig,
) -> u64 {
    let q = grid.q();
    let mut local = 0u64;
    let mut tasks = 0u64;
    for _ in 0..q {
        let left = grid.shift_left_start(u_blob.clone());
        let up = grid.shift_up_start(l_blob.clone());
        let hash = SparseBlockRef::from_blob(u_blob);
        let probe = SparseBlockRef::from_blob(l_blob);
        local += count_shift(task, &hash, &probe, ks, q, cfg, &mut tasks);
        *u_blob = left.wait().expect("left shift");
        *l_blob = up.wait().expect("up shift");
    }
    local
}

fn steady_state_case(p: usize) {
    let cfg = TcConfig::default();
    let per_rank = Universe::run(p, move |comm| {
        let grid = Grid::new(comm);
        let (q, x, salt) = (grid.q(), grid.row(), comm.rank() as u32);
        let n = 60; // divisible by every tested q
        let task = mk_block(n, q, x, 1 + salt);
        let mut u_blob = mk_block(n, q, x, 2 + salt).to_blob();
        let mut l_blob = mk_block(n, q, x, 3 + salt).to_blob();
        let mut ks = KernelState::new(8, q);

        // Pre-stress the communication queues past their steady-state
        // peak: a rank may run ahead of its neighbours by up to q−1
        // shift steps (the ring dependency bounds the lead), so mailbox
        // and pending VecDeques can keep growing for a while after the
        // first rotation. Posting 4q shifts per direction before
        // waiting any of them ratchets every queue capacity beyond
        // anything the measured rotations can reach.
        let mut reqs = Vec::with_capacity(8 * q);
        for _ in 0..4 * q {
            reqs.push(grid.shift_left_start(u_blob.clone()));
            reqs.push(grid.shift_up_start(l_blob.clone()));
        }
        // Waiting in reverse order forces every earlier packet through
        // the per-source pending queues (not just the mailbox), so
        // their capacities ratchet too.
        for r in reqs.into_iter().rev() {
            let _ = r.wait().expect("pre-stress shift");
        }
        comm.barrier().expect("post-stress barrier");

        // Warm-up rotation: every blob's Arc is created, the map is
        // sized, the empty-Bytes singleton is initialized.
        let warm = rotate_once(&grid, &task, &mut u_blob, &mut l_blob, &mut ks, &cfg);

        // Measured rotations: the steady state must not allocate.
        ARMED.with(|c| c.set(true));
        let before = allocs_here();
        let r1 = rotate_once(&grid, &task, &mut u_blob, &mut l_blob, &mut ks, &cfg);
        let r2 = rotate_once(&grid, &task, &mut u_blob, &mut l_blob, &mut ks, &cfg);
        let allocated = allocs_here() - before;
        (warm, r1, r2, allocated)
    });
    for (rank, &(warm, r1, r2, allocated)) in per_rank.iter().enumerate() {
        assert_eq!(warm, r1, "rank {rank}: rotation results diverged");
        assert_eq!(r1, r2, "rank {rank}: rotation results diverged");
        assert_eq!(
            allocated, 0,
            "rank {rank}: steady-state rotations performed {allocated} heap allocations"
        );
    }
}

#[test]
fn steady_state_shift_loop_is_allocation_free_4_ranks() {
    steady_state_case(4);
}

#[test]
fn steady_state_shift_loop_is_allocation_free_9_ranks() {
    steady_state_case(9);
}

/// The borrowed view really is a view: constructing it from a blob
/// allocates nothing (the owned `SparseBlock::from_blob` conversion
/// copies into fresh `Vec`s and is the thing the pipeline avoids).
#[test]
fn borrowed_view_construction_is_copy_free() {
    let block = mk_block(60, 2, 0, 7);
    let blob = block.to_blob();
    let _ = bytes::Bytes::new(); // initialize the empty-buffer singleton
    let before = allocs_here();
    let view = SparseBlockRef::from_blob(&blob);
    let built = allocs_here() - before;
    assert_eq!(built, 0, "SparseBlockRef::from_blob allocated {built} times");
    // Spot-check the view actually reads the data it borrowed.
    use tc_core::blocks::BlockView;
    assert_eq!(view.num_rows(), block.num_rows());
    assert_eq!(view.num_entries(), block.num_entries());
    for lr in 0..block.num_rows() {
        assert_eq!(view.row(lr), block.row(lr));
    }
}
