//! A warm PE chain feeds rows without touching the allocator: rows move from
//! PE to PE by ownership, and every buffer a shift register evicts or the
//! tail emits goes back to the chain's pool. A counting global allocator
//! checks it, per thread, so the test harness's own threads do not count.

use fpga_sim::chain::{Chain2D, Chain3D};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use stencil_core::{compile_star_2d, compile_star_3d, Grid2D, Grid3D, Stencil2D, Stencil3D};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread-local is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only a
// const-initialized thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_2d_chain_feeds_without_allocating() {
    let (nx, ny) = (24usize, 64usize);
    let st = Stencil2D::<f32>::random(2, 11).unwrap();
    let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 5 + y * 3) % 17) as f32).unwrap();
    let kernel = Arc::new(compile_star_2d(&st, 8));
    // A block whose read region overhangs the grid's left edge.
    let (x0, width) = (-4isize, 20usize);
    let mut chain = Chain2D::new(&kernel, 4, x0 as i64, width, nx, ny);
    let mut sink = vec![0.0f32; width];
    let mut feed = |chain: &mut Chain2D<f32>, y: usize| {
        let mut row = chain.take_row();
        grid.read_row_clamped(y as isize, x0, &mut row);
        chain.feed_row(y as i64, row, |_, orow| sink.copy_from_slice(orow));
    };
    // Warm-up: the chain fills (depth · rad rows) and the pool grows to
    // its steady occupancy.
    for y in 0..ny / 2 {
        feed(&mut chain, y);
    }
    let before = allocations();
    // Every row but the last, whose flush drains the whole chain.
    for y in ny / 2..ny - 1 {
        feed(&mut chain, y);
    }
    assert_eq!(allocations() - before, 0, "steady-state 2D feeds allocated");
}

#[test]
fn warm_3d_chain_feeds_without_allocating() {
    let (nx, ny, nz) = (10usize, 9usize, 40usize);
    let st = Stencil3D::<f32>::random(1, 12).unwrap();
    let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x + 2 * y + 3 * z) % 13) as f32).unwrap();
    let kernel = Arc::new(compile_star_3d(&st, 8));
    // A block overhanging the grid in x and y.
    let (x0, y0, width, height) = (-2isize, -3isize, 14usize, 12usize);
    let mut chain = Chain3D::new(&kernel, 3, x0 as i64, y0 as i64, width, height, nx, ny, nz);
    let mut sink = vec![0.0f32; width * height];
    let mut feed = |chain: &mut Chain3D<f32>, z: usize| {
        let mut plane = chain.take_plane();
        grid.read_plane_clamped(z as isize, x0, y0, width, &mut plane);
        chain.feed_plane(z as i64, plane, |_, oplane| sink.copy_from_slice(oplane));
    };
    for z in 0..nz / 2 {
        feed(&mut chain, z);
    }
    let before = allocations();
    for z in nz / 2..nz - 1 {
        feed(&mut chain, z);
    }
    assert_eq!(allocations() - before, 0, "steady-state 3D feeds allocated");
}
