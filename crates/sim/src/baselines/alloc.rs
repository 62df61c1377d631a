//! Physical-frame allocation for the baseline (conventional) systems.
//!
//! Baseline OSes in the evaluation allocate physical memory on first touch
//! (demand paging). A bump allocator reproduces the allocation order of a
//! freshly booted machine, which is what matters for row-buffer locality;
//! fragmentation effects are exercised separately by the VBI buddy
//! allocator.

/// Bump allocator over 4 KiB frames.
#[derive(Debug, Clone)]
pub(crate) struct FrameAlloc {
    next: u64,
    limit: u64,
}

impl FrameAlloc {
    /// Creates an allocator over `frames` 4 KiB frames.
    pub(crate) fn new(frames: u64) -> Self {
        Self { next: 0, limit: frames }
    }

    /// Allocates one frame, returning its frame number.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted — baseline simulations are
    /// sized so that footprints fit, and exceeding that is a harness bug.
    pub(crate) fn frame(&mut self) -> u64 {
        assert!(self.next < self.limit, "baseline physical memory exhausted");
        let f = self.next;
        self.next += 1;
        f
    }

    /// Allocates `n` contiguous frames (e.g. a 2 MiB page = 512 frames),
    /// aligned to `n`.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    pub(crate) fn contiguous(&mut self, n: u64) -> u64 {
        let start = self.next.next_multiple_of(n);
        assert!(start + n <= self.limit, "baseline physical memory exhausted");
        self.next = start + n;
        start
    }

    /// Frames handed out so far (including alignment holes).
    #[cfg(test)]
    pub(crate) fn used(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_sequential() {
        let mut a = FrameAlloc::new(10);
        assert_eq!(a.frame(), 0);
        assert_eq!(a.frame(), 1);
        assert_eq!(a.used(), 2);
    }

    #[test]
    fn contiguous_is_aligned() {
        let mut a = FrameAlloc::new(4096);
        a.frame();
        let big = a.contiguous(512);
        assert_eq!(big % 512, 0);
        assert_eq!(a.frame(), big + 512);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = FrameAlloc::new(1);
        a.frame();
        a.frame();
    }
}
