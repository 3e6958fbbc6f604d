//! Memory request descriptions.

use serde::{Deserialize, Serialize};

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Device → kernel.
    Read,
    /// Kernel → device.
    Write,
}

/// One contiguous memory request as issued by a kernel load/store unit:
/// `bytes` bytes starting at byte address `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Byte address of the first byte.
    pub addr: u64,
    /// Length in bytes (must be > 0).
    pub bytes: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl Request {
    /// Convenience constructor for a read.
    pub fn read(addr: u64, bytes: u64) -> Self {
        Self {
            addr,
            bytes,
            kind: AccessKind::Read,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(addr: u64, bytes: u64) -> Self {
        Self {
            addr,
            bytes,
            kind: AccessKind::Write,
        }
    }

    /// Index of the first burst line touched, for lines of `line_bytes`.
    #[inline]
    pub fn first_line(&self, line_bytes: u64) -> u64 {
        self.addr / line_bytes
    }

    /// Index of the last burst line touched.
    #[inline]
    pub fn last_line(&self, line_bytes: u64) -> u64 {
        (self.addr + self.bytes - 1) / line_bytes
    }

    /// Number of burst lines this request touches. A request whose span
    /// crosses a line boundary is *split* by the controller — the mechanism
    /// behind the paper's 3D pipeline-efficiency loss.
    #[inline]
    pub fn lines_touched(&self, line_bytes: u64) -> u64 {
        self.last_line(line_bytes) - self.first_line(line_bytes) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_request_touches_one_line() {
        let r = Request::read(0, 64);
        assert_eq!(r.lines_touched(64), 1);
        let r = Request::read(64, 64);
        assert_eq!(r.lines_touched(64), 1);
    }

    #[test]
    fn unaligned_request_splits() {
        // 64 B at offset 16 spans two lines — the paper's 3D parvec=16 case.
        let r = Request::read(16, 64);
        assert_eq!(r.lines_touched(64), 2);
    }

    #[test]
    fn small_request_at_odd_offset_can_stay_within_line() {
        // 16 B at offset 48 ends exactly at the boundary.
        let r = Request::write(48, 16);
        assert_eq!(r.lines_touched(64), 1);
        // 16 B at offset 56 crosses.
        let r = Request::write(56, 16);
        assert_eq!(r.lines_touched(64), 2);
    }

    #[test]
    fn long_request_touches_many_lines() {
        let r = Request::read(32, 256);
        // Spans [32, 288): lines 0..=4.
        assert_eq!(r.lines_touched(64), 5);
        assert_eq!(r.first_line(64), 0);
        assert_eq!(r.last_line(64), 4);
    }
}
