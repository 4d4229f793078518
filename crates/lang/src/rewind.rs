//! Checkpoint and undo for the substrate simulators without heap traffic.
//!
//! A simulator state is a growing [`ComputationBuilder`] plus a small
//! *control state* (program counters, local and global slots, queues,
//! offers). [`System::apply`](crate::System::apply) saves the control
//! state's pre-image into a [`Rewind`] slot at the current depth before it
//! steps, [`System::checkpoint`](crate::System::checkpoint) records only
//! the builder's growth point and that depth ([`SimCheckpoint`]), and
//! [`System::undo`](crate::System::undo) truncates the builder and swaps
//! the saved slot back in. The slot swapped out keeps its buffers, and the
//! next apply at that depth refills them with `clone_from`, so a sweep
//! that revisits a depth allocates nothing for the save once the deepest
//! branch has been seen.

use gem_core::{BuilderMark, ComputationBuilder};

/// What [`System::undo`](crate::System::undo) needs to roll one
/// [`System::apply`](crate::System::apply) back: the builder's growth
/// point and the depth of the control-state save the apply made. It holds
/// no heap data.
#[derive(Clone, Debug)]
pub struct SimCheckpoint {
    mark: BuilderMark,
    depth: usize,
}

/// A depth-indexed stack of control-state saves whose buffers are reused.
///
/// The saves are history, not state: they take no part in a state's
/// control key, and a cloned state starts with none.
#[derive(Debug)]
pub(crate) struct Rewind<C> {
    slots: Vec<C>,
    depth: usize,
}

impl<C> Default for Rewind<C> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            depth: 0,
        }
    }
}

impl<C> Clone for Rewind<C> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<C: Clone> Rewind<C> {
    /// The checkpoint of a state whose trace is `builder` and whose saves
    /// are `self`.
    pub(crate) fn checkpoint(&self, builder: &ComputationBuilder) -> SimCheckpoint {
        SimCheckpoint {
            mark: builder.mark(),
            depth: self.depth,
        }
    }

    /// Saves `ctl` as the pre-image of the apply about to run. The slot at
    /// the current depth keeps `ctl`'s own buffers, and `ctl` continues on
    /// the slot's old buffers refilled with a copy. Undo swaps them back,
    /// so every buffer stays with its depth: stepping a path again reuses
    /// the buffers that stepped it before, whose capacity already fits.
    pub(crate) fn save(&mut self, ctl: &mut C) {
        match self.slots.get_mut(self.depth) {
            Some(slot) => slot.clone_from(ctl),
            None => self.slots.push(ctl.clone()),
        }
        std::mem::swap(ctl, &mut self.slots[self.depth]);
        self.depth += 1;
    }

    /// Rolls `builder` and `ctl` back to `cp`, taken on this state.
    /// Returns the number of events truncated.
    ///
    /// # Panics
    ///
    /// Panics if no apply was saved since `cp` was taken.
    pub(crate) fn undo(
        &mut self,
        builder: &mut ComputationBuilder,
        ctl: &mut C,
        cp: SimCheckpoint,
    ) -> usize {
        assert!(
            cp.depth < self.depth,
            "undo without an apply since the checkpoint"
        );
        let before = builder.event_count();
        builder.truncate_to(&cp.mark);
        std::mem::swap(ctl, &mut self.slots[cp.depth]);
        self.depth = cp.depth;
        before - builder.event_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::Structure;

    #[test]
    fn undo_restores_the_save_of_its_depth_and_clones_start_empty() {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).expect("class");
        let p = s.add_element("P", &[act]).expect("element");
        let mut b = ComputationBuilder::new(s);
        let mut ctl = vec![1];
        let mut rw = Rewind::default();
        let outer = rw.checkpoint(&b);
        rw.save(&mut ctl);
        ctl.push(2);
        b.add_event(p, act, []).expect("event");
        let inner = rw.checkpoint(&b);
        rw.save(&mut ctl);
        ctl.push(3);
        b.add_event(p, act, []).expect("event");
        assert!(rw.clone().slots.is_empty());
        assert_eq!(rw.undo(&mut b, &mut ctl, inner), 1);
        assert_eq!(ctl, [1, 2]);
        assert_eq!(rw.undo(&mut b, &mut ctl, outer), 1);
        assert_eq!((ctl, b.event_count()), (vec![1], 0));
    }
}
