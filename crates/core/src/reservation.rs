//! Early reservation's state (§5.3) behind one owner. `steal` and
//! `release_largest` share one victim rule — the last reserved slot of the
//! largest run, ties to the larger VBUID — so consecutive takes hand out
//! adjacent frames (row-buffer friendly, and the buddy can merge them back),
//! owners' front pages keep their slots longest, and no choice depends on
//! hash order.

use std::collections::HashMap;

use crate::addr::Vbuid;
use crate::phys::Frame;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Reserved,
    Used,
    Stolen,
}

/// One VB's run (slot `i` is frame `base + i`, kept for page `i`) and how
/// many of its slots are still reserved.
#[derive(Debug)]
struct Run {
    base: Frame,
    slots: Vec<Slot>,
    unused: usize,
}

/// Every run of one MTL, the owner of each reserved or used frame, and the
/// reserved slots across all runs.
#[derive(Debug, Default)]
pub(crate) struct Reservations {
    runs: HashMap<Vbuid, Run>,
    owner: HashMap<u64, Vbuid>,
    unused: usize,
}

impl Reservations {
    /// Records the `len` frames from `base` as `vb`'s run, all reserved.
    pub(crate) fn reserve(&mut self, vb: Vbuid, base: Frame, len: u64) {
        self.owner.extend((0..len).map(|i| (base.0 + i, vb)));
        let len = len as usize;
        self.runs.insert(vb, Run { base, slots: vec![Slot::Reserved; len], unused: len });
        self.unused += len;
    }

    /// Moves slot `i` of `vb`'s run to `to`, the one place counts change.
    fn set(&mut self, vb: Vbuid, i: usize, to: Slot) -> Frame {
        let run = self.runs.get_mut(&vb).expect("a live run");
        let was = usize::from(std::mem::replace(&mut run.slots[i], to) == Slot::Reserved);
        let is = usize::from(to == Slot::Reserved);
        run.unused = run.unused + is - was;
        self.unused = self.unused + is - was;
        let frame = run.base.offset(i as u64);
        if to == Slot::Stolen {
            self.owner.remove(&frame.0);
        }
        frame
    }

    /// Priority 1 of §5.3: the frame `vb`'s run keeps for `page`, if free.
    pub(crate) fn take_own(&mut self, vb: Vbuid, page: u64) -> Option<Frame> {
        let free = self.runs.get(&vb)?.slots.get(page as usize) == Some(&Slot::Reserved);
        free.then(|| self.set(vb, page as usize, Slot::Used))
    }

    /// Priority 3 of §5.3: a reserved frame of a run other than `not`'s.
    pub(crate) fn steal(&mut self, not: Vbuid) -> Option<Frame> {
        self.take_from_largest(Some(not))
    }

    /// A reserved frame of any run, for the free pool.
    pub(crate) fn release_largest(&mut self) -> Option<Frame> {
        self.take_from_largest(None)
    }

    fn take_from_largest(&mut self, skip: Option<Vbuid>) -> Option<Frame> {
        if self.unused == 0 {
            return None;
        }
        let (&vb, run) = (self.runs.iter())
            .filter(|(vb, run)| run.unused > 0 && Some(**vb) != skip)
            .max_by_key(|(vb, run)| (run.slots.len(), **vb))?;
        let i = run.slots.iter().rposition(|s| *s == Slot::Reserved)?;
        Some(self.set(vb, i, Slot::Stolen))
    }

    /// Up to `n` of `vb`'s first reserved frames, taken by their owner.
    pub(crate) fn release_from(&mut self, vb: Vbuid, n: usize) -> Vec<Frame> {
        let first = |r: &Self| r.runs.get(&vb)?.slots.iter().position(|s| *s == Slot::Reserved);
        (0..n).map_while(|_| Some(self.set(vb, first(self)?, Slot::Stolen))).collect()
    }

    /// Returns a freed frame to its owner's run; `false` if no run owns it.
    pub(crate) fn give_back(&mut self, frame: Frame) -> bool {
        let Some(&vb) = self.owner.get(&frame.0) else { return false };
        self.set(vb, (frame.0 - self.runs[&vb].base.0) as usize, Slot::Reserved);
        true
    }

    /// Dissolves `vb`'s run and returns its reserved frames to free. Stolen
    /// ones lost their owner record when taken: another run may own them.
    pub(crate) fn teardown(&mut self, vb: Vbuid) -> impl Iterator<Item = Frame> {
        let run = self.runs.remove(&vb).map(|r| (r.base, r.slots, r.unused));
        let (base, slots, unused) = run.unwrap_or((Frame(0), Vec::new(), 0));
        self.unused -= unused;
        for (i, _) in slots.iter().enumerate().filter(|(_, s)| **s != Slot::Stolen) {
            self.owner.remove(&(base.0 + i as u64));
        }
        (0..).zip(slots).filter(|(_, s)| *s == Slot::Reserved).map(move |(i, _)| base.offset(i))
    }

    /// Reserved-but-unused frames across all runs.
    pub(crate) fn unused(&self) -> usize {
        self.unused
    }

    /// Checks the counts against a scan of the slots, and the owner map
    /// against exactly the reserved and used slots, each naming its run.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let (mut counted, mut scanned, mut held) = (0, 0, 0);
        for (&vb, run) in &self.runs {
            counted += run.unused;
            for (i, &slot) in run.slots.iter().enumerate().filter(|(_, s)| **s != Slot::Stolen) {
                (scanned, held) = (scanned + usize::from(slot == Slot::Reserved), held + 1);
                if self.owner.get(&(run.base.0 + i as u64)) != Some(&vb) {
                    return Err(format!("slot {i} of {vb}'s run: the owner map names another"));
                }
            }
        }
        let (unused, owned) = (self.unused, self.owner.len());
        if (counted, unused, owned) == (scanned, scanned, held) {
            return Ok(());
        }
        Err(format!(
            "{unused} unused slots counted, {counted} per run, {scanned} scanned; \
             {owned} owned frames, {held} reserved or used"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SizeClass;

    /// Read accessors for the MTL's tests.
    impl Reservations {
        pub(crate) fn is_empty(&self) -> bool {
            self.runs.is_empty()
        }

        pub(crate) fn base(&self, vb: Vbuid) -> Frame {
            self.runs[&vb].base
        }

        pub(crate) fn owner(&self, frame: Frame) -> Option<Vbuid> {
            self.owner.get(&frame.0).copied()
        }

        pub(crate) fn unused_frames(&self, vb: Vbuid) -> Vec<Frame> {
            self.frames_in(vb, Slot::Reserved)
        }

        pub(crate) fn stolen_frames(&self, vb: Vbuid) -> Vec<Frame> {
            self.frames_in(vb, Slot::Stolen)
        }

        fn frames_in(&self, vb: Vbuid, state: Slot) -> Vec<Frame> {
            let run = &self.runs[&vb];
            (run.slots.iter().enumerate())
                .filter(|(_, slot)| **slot == state)
                .map(|(i, _)| run.base.offset(i as u64))
                .collect()
        }
    }

    #[test]
    fn both_takers_pick_the_last_unused_slot_of_the_largest_run() {
        let (small, large, larger_vbuid) = (
            Vbuid::new(SizeClass::Kib128, 0),
            Vbuid::new(SizeClass::Mib4, 0),
            Vbuid::new(SizeClass::Mib4, 1),
        );
        let mut r = Reservations::default();
        r.reserve(small, Frame(0), 32);
        r.reserve(large, Frame(1024), 1024);
        r.reserve(larger_vbuid, Frame(2048), 1024);
        // Ties go to the larger VBUID; the thief skips its own run.
        assert_eq!(r.release_largest(), Some(Frame(3071)));
        assert_eq!(r.steal(larger_vbuid), Some(Frame(2047)));
        assert_eq!(r.steal(large), Some(Frame(3070)));
        // The owner's own verbs take from the front.
        assert_eq!(r.take_own(large, 0), Some(Frame(1024)));
        assert_eq!(r.release_from(large, 2), vec![Frame(1025), Frame(1026)]);
        assert_eq!(r.unused(), 32 + 1024 - 4 + 1024 - 2);
        assert_eq!(r.audit(), Ok(()));
        // A stolen frame has no owner to go back to; a used one does.
        assert!(!r.give_back(Frame(2047)));
        assert!(r.give_back(Frame(1024)));
        assert_eq!(r.teardown(large).count(), 1024 - 3);
        assert_eq!(r.audit(), Ok(()));
    }

    #[test]
    fn with_nothing_unused_the_takers_come_back_empty() {
        let vb = Vbuid::new(SizeClass::Kib4, 0);
        let mut r = Reservations::default();
        assert_eq!(r.release_largest(), None);
        r.reserve(vb, Frame(7), 1);
        assert_eq!(r.steal(vb), None, "a thief never raids its own run");
        assert_eq!(r.take_own(vb, 0), Some(Frame(7)));
        assert_eq!((r.release_largest(), r.unused()), (None, 0));
        assert_eq!(r.teardown(vb).count(), 0);
        assert!(r.is_empty() && r.owner(Frame(7)).is_none());
        assert_eq!(r.audit(), Ok(()));
    }
}
