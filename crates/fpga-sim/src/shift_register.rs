//! The PE-internal shift register.
//!
//! On the FPGA, each PE buffers its working set in one large shift register
//! inferred into Block RAM: `2·rad·bsize_x + parvec` cells for 2D and
//! `2·rad·bsize_x·bsize_y + parvec` for 3D (Eq. 7). Every cycle the register
//! shifts by `parvec` cells and the stencil taps read fixed offsets.
//!
//! The simulator models this at *row/plane granularity*: a ring buffer of the
//! last `2·rad + 1` rows (2D) or planes (3D), indexed by their global stream
//! coordinate. This is semantically identical to the cell-level register —
//! a tap at offset `d·bsize_x + k` in hardware is exactly "cell `k` of the
//! row `d` steps behind" here — while letting the functional simulator run
//! at memcpy speed. The *cell-level* size of Eq. 7 is still what the area
//! model charges (see [`crate::area`]).

use std::collections::VecDeque;
use stencil_core::Real;

/// A free list of equally sized row/plane buffers for allocation-free
/// steady-state streaming.
///
/// Rows move by ownership: a row taken from the pool is filled, fed to a PE
/// whose shift register keeps it, and comes back when the register evicts
/// it; output rows are taken here and either move on to the next PE or are
/// [`put`](Self::put) back once committed. After the first few rows warm
/// the pool, the feed loops run without touching the allocator. Buffers
/// keep their length and stale contents across the round trip: whoever
/// takes one overwrites every cell it needs.
#[derive(Debug, Clone)]
pub struct RowPool<T> {
    len: usize,
    free: Vec<Vec<T>>,
}

impl<T: Real> RowPool<T> {
    /// Creates an empty pool of `len`-cell buffers.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            free: Vec::new(),
        }
    }

    /// Hands out a `len`-cell buffer: a returned one with its stale
    /// contents when available, otherwise a fresh zeroed one.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_else(|| vec![T::ZERO; self.len])
    }

    /// Returns a buffer to the pool.
    ///
    /// # Panics
    /// Panics when the buffer does not have the pool's length.
    pub fn put(&mut self, buf: Vec<T>) {
        assert_eq!(buf.len(), self.len, "buffer length mismatch");
        self.free.push(buf);
    }

    /// Number of buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Ring buffer of the most recent `capacity` rows (or planes), tagged with
/// their global index along the streamed dimension.
#[derive(Debug, Clone)]
pub struct ShiftRegister<T> {
    capacity: usize,
    rows: VecDeque<(i64, Vec<T>)>,
}

impl<T: Clone> ShiftRegister<T> {
    /// Creates an empty register holding up to `capacity` rows — for a
    /// radius-`rad` stencil that is `2·rad + 1`.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            rows: VecDeque::with_capacity(capacity),
        }
    }

    /// Capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pushes a row with its global stream index, taking ownership of its
    /// buffer, and returns the oldest row once full (the hardware shift) so
    /// the caller can recycle its buffer.
    ///
    /// # Panics
    /// Panics when indices are pushed out of order (hardware streams rows
    /// strictly monotonically).
    pub fn push(&mut self, index: i64, row: Vec<T>) -> Option<Vec<T>> {
        if let Some(&(last, _)) = self.rows.back() {
            assert!(index > last, "rows must be pushed in increasing order");
        }
        let evicted = if self.rows.len() == self.capacity {
            self.rows.pop_front().map(|(_, r)| r)
        } else {
            None
        };
        self.rows.push_back((index, row));
        evicted
    }

    /// The row with global index `index`, if still resident.
    pub fn get(&self, index: i64) -> Option<&[T]> {
        let &(front, _) = self.rows.front()?;
        let off = index.checked_sub(front)?;
        if off < 0 {
            return None;
        }
        self.rows.get(off as usize).map(|(i, r)| {
            debug_assert_eq!(*i, index);
            r.as_slice()
        })
    }

    /// The row with index clamped into `[lo, hi]` — the simulator-side
    /// equivalent of the generated boundary-condition code.
    ///
    /// # Panics
    /// Panics when the clamped row is not resident (a scheduling bug: the
    /// caller asked for a tap before the register was warm).
    pub fn get_clamped(&self, index: i64, lo: i64, hi: i64) -> &[T] {
        let idx = index.clamp(lo, hi);
        self.get(idx)
            .unwrap_or_else(|| panic!("row {idx} (clamped from {index}) not resident"))
    }

    /// Index of the newest resident row.
    pub fn newest(&self) -> Option<i64> {
        self.rows.back().map(|&(i, _)| i)
    }

    /// Index of the oldest resident row.
    pub fn oldest(&self) -> Option<i64> {
        self.rows.front().map(|&(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut sr = ShiftRegister::new(3);
        sr.push(0, vec![0.0f32]);
        sr.push(1, vec![1.0]);
        assert_eq!(sr.get(0), Some(&[0.0f32][..]));
        assert_eq!(sr.get(1), Some(&[1.0f32][..]));
        assert_eq!(sr.get(2), None);
        assert_eq!(sr.len(), 2);
    }

    #[test]
    fn eviction_after_capacity() {
        let mut sr = ShiftRegister::new(3);
        for i in 0..5 {
            sr.push(i, vec![i as f32]);
        }
        assert_eq!(sr.len(), 3);
        assert_eq!(sr.oldest(), Some(2));
        assert_eq!(sr.newest(), Some(4));
        assert_eq!(sr.get(1), None);
        assert_eq!(sr.get(3), Some(&[3.0f32][..]));
    }

    #[test]
    fn negative_indices_supported() {
        // Leading halo rows use negative stream indices.
        let mut sr = ShiftRegister::new(3);
        sr.push(-2, vec![1i32]);
        sr.push(-1, vec![2]);
        sr.push(0, vec![3]);
        assert_eq!(sr.get(-2), Some(&[1][..]));
        assert_eq!(sr.get_clamped(-5, -2, 0), &[1]);
    }

    #[test]
    fn clamped_access() {
        let mut sr = ShiftRegister::new(5);
        for i in 0..5 {
            sr.push(i, vec![i as f64]);
        }
        assert_eq!(sr.get_clamped(-3, 0, 4), &[0.0]);
        assert_eq!(sr.get_clamped(9, 0, 4), &[4.0]);
        assert_eq!(sr.get_clamped(2, 0, 4), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_push_panics() {
        let mut sr = ShiftRegister::new(3);
        sr.push(1, vec![0u8]);
        sr.push(1, vec![1]);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn clamped_miss_panics() {
        let sr = ShiftRegister::<f32>::new(3);
        let _ = sr.get_clamped(0, 0, 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ShiftRegister::<f32>::new(0);
    }

    #[test]
    fn push_hands_back_the_evicted_buffer() {
        let mut sr = ShiftRegister::new(2);
        assert_eq!(sr.push(0, vec![0.0f64; 8]), None);
        assert_eq!(sr.push(1, vec![1.0; 8]), None);
        // From here on every push evicts the oldest row and returns it.
        for i in 2..10 {
            let evicted = sr.push(i, vec![i as f64; 8]).expect("full register evicts");
            assert_eq!(evicted, vec![(i - 2) as f64; 8]);
        }
        assert_eq!(sr.get(9), Some(&[9.0f64; 8][..]));
        assert_eq!(sr.len(), 2);
    }

    #[test]
    fn row_pool_recycles_buffers() {
        let mut pool = RowPool::<f32>::new(3);
        let mut buf = pool.take();
        assert_eq!(buf, vec![0.0; 3], "fresh buffers are zeroed");
        buf.copy_from_slice(&[1.0, 2.0, 3.0]);
        let ptr = buf.as_ptr();
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let again = pool.take();
        assert_eq!(again.as_ptr(), ptr, "the same storage comes back");
        assert_eq!(again, vec![1.0, 2.0, 3.0], "contents are not cleared");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn row_pool_rejects_foreign_lengths() {
        RowPool::<f32>::new(3).put(vec![0.0; 4]);
    }
}
