//! Shape-class-keyed grid buffer pooling — the host-side analogue of the
//! paper's "touch external memory once" discipline.
//!
//! The serving hot path needs three grids per job (input, output, ping-pong
//! scratch) plus one more per shadow verification. Before this module,
//! every job — and every retry and shadow run — allocated them fresh.
//! [`GridPool`] recycles the flat `Vec<f32>` storage behind
//! [`Grid2D`]/[`Grid3D`] across jobs:
//!
//! - **Shape classes.** Buffers are keyed by `(dim, ⌈nx⌉₂, ⌈ny⌉₂, ⌈nz⌉₂)`
//!   — each axis rounded up to a power of two, the same bucketing the
//!   planner's `ShapeKey` uses — and allocated at the class capacity, so
//!   every shape in a class reuses the same free list without reallocating.
//! - **Bounded free lists.** Each class retains at most
//!   `MAX_FREE_PER_CLASS` (32) buffers; returns beyond that are
//!   dropped (counted as discards), so an adversarial shape mix cannot
//!   hold unbounded memory.
//! - **RAII leases.** [`GridLease2D`]/[`GridLease3D`] deref to the grid and
//!   return the storage to the pool on drop — including drops during panic
//!   unwinding, so an injected job failure can never leak a buffer.
//! - **Dirty reuse.** Recycled buffers are *not* zeroed: every consumer of
//!   a lease either fills it (job inputs) or fully overwrites it (the
//!   `_into` executor variants). Property tests prove the overwrite.
//!
//! Stencils and compiled kernels are not cached: a job builds them when it
//! runs, which took under a microsecond on a 2 vCPU Xeon, about what a
//! cache lookup cost.
//!
//! All counters are threaded through the shared [`MetricsRegistry`] —
//! `pool_hits`, `pool_misses`, `pool_returns`, `pool_discards`,
//! `pool_bytes_pooled` and the `pool_resident_bytes` gauge — and surface
//! in the `memory` section of the serve report.

use crate::metrics::{Counter, Gauge, MetricsRegistry};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};
use stencil_core::{Grid2D, Grid3D};

/// Buffers retained per shape class; returns beyond this are dropped.
/// Sized so one free list can absorb every lease the worker fleet can hold
/// in flight for a class (workers × leases-per-job) with room to spare.
const MAX_FREE_PER_CLASS: usize = 32;

/// A shape class: dimensionality plus each axis rounded up to a power of
/// two (the planner's `ShapeKey` bucketing). All shapes in a class share a
/// free list of buffers sized at the class capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PoolKey {
    dim: usize,
    nx_class: usize,
    ny_class: usize,
    nz_class: usize,
}

impl PoolKey {
    fn new(dim: usize, nx: usize, ny: usize, nz: usize) -> PoolKey {
        PoolKey {
            dim,
            nx_class: nx.max(1).next_power_of_two(),
            ny_class: ny.max(1).next_power_of_two(),
            nz_class: nz.max(1).next_power_of_two(),
        }
    }

    /// Cells a class-capacity buffer holds (every member shape fits).
    fn capacity(&self) -> usize {
        self.nx_class * self.ny_class * self.nz_class
    }
}

/// Point-in-time pool statistics (read from the shared counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases served from a free list (allocations avoided).
    pub hits: u64,
    /// Leases that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to a free list on lease drop.
    pub returns: u64,
    /// Buffers dropped on return because their class list was full.
    pub discards: u64,
}

/// A shape-class-keyed pool of grid storage shared across worker shards.
///
/// Lease with [`lease_2d`](GridPool::lease_2d) /
/// [`lease_3d`](GridPool::lease_3d) through an `Arc<GridPool>`; the lease
/// hands the storage back on drop.
pub struct GridPool {
    free: Mutex<BTreeMap<PoolKey, Vec<Vec<f32>>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    returns: Arc<Counter>,
    discards: Arc<Counter>,
    bytes_pooled: Arc<Counter>,
    resident: Arc<Gauge>,
}

impl GridPool {
    /// Creates a pool whose counters live in `metrics`.
    pub fn new(metrics: &MetricsRegistry) -> GridPool {
        GridPool {
            free: Mutex::new(BTreeMap::new()),
            hits: metrics.counter("pool_hits"),
            misses: metrics.counter("pool_misses"),
            returns: metrics.counter("pool_returns"),
            discards: metrics.counter("pool_discards"),
            bytes_pooled: metrics.counter("pool_bytes_pooled"),
            resident: metrics.gauge("pool_resident_bytes"),
        }
    }

    /// Current hit/miss/return/discard counts.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            returns: self.returns.get(),
            discards: self.discards.get(),
        }
    }

    /// Buffers currently held across all free lists.
    pub fn free_buffers(&self) -> usize {
        self.free.lock().unwrap().values().map(Vec::len).sum()
    }

    /// Takes a buffer of at least `len` cells for `key`'s class, resized to
    /// exactly `len`. Recycled contents beyond the zero-fill of fresh cells
    /// are intentionally left dirty.
    fn take_buffer(self: &Arc<Self>, key: PoolKey, len: usize) -> Vec<f32> {
        debug_assert!(len <= key.capacity());
        let recycled = self.free.lock().unwrap().get_mut(&key).and_then(Vec::pop);
        let mut buf = match recycled {
            Some(buf) => {
                self.hits.inc();
                self.bytes_pooled
                    .add((len * std::mem::size_of::<f32>()) as u64);
                self.resident
                    .add(-((key.capacity() * std::mem::size_of::<f32>()) as i64));
                buf
            }
            None => {
                self.misses.inc();
                Vec::with_capacity(key.capacity())
            }
        };
        // Capacity is at least the class capacity, so neither call
        // reallocates; growth cells are zero-filled, surviving cells keep
        // their stale contents (leases are overwritten by construction).
        buf.truncate(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to `key`'s free list, or drops it when the class
    /// list is full.
    fn give_back(&self, key: PoolKey, buf: Vec<f32>) {
        let mut free = self.free.lock().unwrap();
        let list = free.entry(key).or_default();
        if list.len() < MAX_FREE_PER_CLASS {
            list.push(buf);
            self.returns.inc();
            self.resident
                .add((key.capacity() * std::mem::size_of::<f32>()) as i64);
        } else {
            self.discards.inc();
        }
    }

    /// Leases an `nx × ny` 2D grid. Contents are unspecified (recycled
    /// buffers stay dirty); the caller must fill or fully overwrite it.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn lease_2d(self: &Arc<Self>, nx: usize, ny: usize) -> GridLease2D {
        let key = PoolKey::new(2, nx, ny, 1);
        let buf = self.take_buffer(key, nx * ny);
        GridLease2D {
            grid: Some(Grid2D::from_vec(nx, ny, buf).expect("pool lease dimensions")),
            pool: Arc::clone(self),
            key,
        }
    }

    /// Leases an `nx × ny × nz` 3D grid (see [`lease_2d`](GridPool::lease_2d)).
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn lease_3d(self: &Arc<Self>, nx: usize, ny: usize, nz: usize) -> GridLease3D {
        let key = PoolKey::new(3, nx, ny, nz);
        let buf = self.take_buffer(key, nx * ny * nz);
        GridLease3D {
            grid: Some(Grid3D::from_vec(nx, ny, nz, buf).expect("pool lease dimensions")),
            pool: Arc::clone(self),
            key,
        }
    }
}

impl std::fmt::Debug for GridPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridPool")
            .field("stats", &self.stats())
            .field("free_buffers", &self.free_buffers())
            .finish()
    }
}

/// RAII lease of a pooled 2D grid; derefs to [`Grid2D<f32>`] and returns
/// the storage to the pool on drop (including panic unwinds).
pub struct GridLease2D {
    grid: Option<Grid2D<f32>>,
    pool: Arc<GridPool>,
    key: PoolKey,
}

impl Deref for GridLease2D {
    type Target = Grid2D<f32>;
    fn deref(&self) -> &Grid2D<f32> {
        self.grid.as_ref().expect("lease holds a grid until drop")
    }
}

impl DerefMut for GridLease2D {
    fn deref_mut(&mut self) -> &mut Grid2D<f32> {
        self.grid.as_mut().expect("lease holds a grid until drop")
    }
}

impl Drop for GridLease2D {
    fn drop(&mut self) {
        if let Some(grid) = self.grid.take() {
            self.pool.give_back(self.key, grid.into_raw());
        }
    }
}

impl std::fmt::Debug for GridLease2D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GridLease2D({}x{})", self.nx(), self.ny())
    }
}

/// RAII lease of a pooled 3D grid (see [`GridLease2D`]).
pub struct GridLease3D {
    grid: Option<Grid3D<f32>>,
    pool: Arc<GridPool>,
    key: PoolKey,
}

impl Deref for GridLease3D {
    type Target = Grid3D<f32>;
    fn deref(&self) -> &Grid3D<f32> {
        self.grid.as_ref().expect("lease holds a grid until drop")
    }
}

impl DerefMut for GridLease3D {
    fn deref_mut(&mut self) -> &mut Grid3D<f32> {
        self.grid.as_mut().expect("lease holds a grid until drop")
    }
}

impl Drop for GridLease3D {
    fn drop(&mut self) {
        if let Some(grid) = self.grid.take() {
            self.pool.give_back(self.key, grid.into_raw());
        }
    }
}

impl std::fmt::Debug for GridLease3D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GridLease3D({}x{}x{})", self.nx(), self.ny(), self.nz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> (Arc<GridPool>, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let p = Arc::new(GridPool::new(&metrics));
        (p, metrics)
    }

    #[test]
    fn lease_reuse_is_a_hit_within_a_shape_class() {
        let (p, _) = pool();
        {
            let lease = p.lease_2d(100, 60);
            assert_eq!((lease.nx(), lease.ny()), (100, 60));
        } // returned here
        assert_eq!(
            p.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                returns: 1,
                discards: 0,
            }
        );
        // A different shape in the same class (128 x 64) reuses the buffer.
        let lease = p.lease_2d(120, 33);
        assert_eq!((lease.nx(), lease.ny()), (120, 33));
        assert_eq!(lease.len(), 120 * 33);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn distinct_classes_do_not_share_buffers() {
        let (p, _) = pool();
        drop(p.lease_2d(16, 16)); // class 16x16
        let _big = p.lease_2d(200, 200); // class 256x256 — must not reuse
        assert_eq!(p.stats().hits, 0);
        assert_eq!(p.stats().misses, 2);
        // 2D and 3D classes are distinct even at equal capacity.
        drop(p.lease_3d(16, 16, 1));
        assert_eq!(p.stats().misses, 3);
    }

    #[test]
    fn free_lists_are_bounded() {
        let (p, _) = pool();
        let leases: Vec<_> = (0..MAX_FREE_PER_CLASS + 2)
            .map(|_| p.lease_2d(8, 8))
            .collect();
        drop(leases);
        assert_eq!(
            p.free_buffers(),
            MAX_FREE_PER_CLASS,
            "only the bound retained"
        );
        assert_eq!(p.stats().returns, MAX_FREE_PER_CLASS as u64);
        assert_eq!(p.stats().discards, 2);
    }

    #[test]
    fn resident_bytes_gauge_tracks_free_list_contents() {
        let (p, metrics) = pool();
        let gauge = metrics.gauge("pool_resident_bytes");
        let lease = p.lease_2d(10, 10); // class 16x16 = 1024 bytes
        assert_eq!(gauge.get(), 0, "leased-out buffers are not resident");
        drop(lease);
        assert_eq!(gauge.get(), 16 * 16 * 4);
        let _again = p.lease_2d(10, 10);
        assert_eq!(gauge.get(), 0);
        assert!(gauge.high_water() >= 16 * 16 * 4);
    }

    #[test]
    fn recycled_lease_is_dirty_and_resized_exactly() {
        let (p, _) = pool();
        {
            let mut lease = p.lease_2d(8, 8);
            lease.as_mut_slice().fill(7.5);
        }
        // Same class, smaller shape: contents must be the stale 7.5s (the
        // pool does not zero), proving consumers cannot rely on clean
        // buffers — the executor `_into` property tests prove they don't.
        let lease = p.lease_2d(6, 6);
        assert_eq!(lease.len(), 36);
        assert!(lease.as_slice().iter().all(|&v| v == 7.5));
        // A larger shape in the same class zero-fills only the growth.
        drop(lease);
        let lease = p.lease_2d(8, 8);
        assert_eq!(lease.len(), 64);
        assert!(lease.as_slice()[..36].iter().all(|&v| v == 7.5));
        assert!(lease.as_slice()[36..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn leases_survive_panic_unwinds() {
        let (p, _) = pool();
        let p2 = Arc::clone(&p);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _lease = p2.lease_2d(32, 32);
            panic!("job failure with a live lease");
        }));
        assert_eq!(p.stats().returns, 1, "unwind returned the buffer");
        assert_eq!(p.lease_2d(32, 32).len(), 32 * 32);
        assert_eq!(p.stats().hits, 1);
    }
}
