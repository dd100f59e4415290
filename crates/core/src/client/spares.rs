//! A client's spare per-op state: placements, and the routing buffer and
//! target list of each collective round.
//!
//! A DFS op opens its handles anew and sends an object-wide op as one
//! collective round, so without these each op would allocate a `Placed`
//! per handle and a `Vec` and a target list per round. Each is taken from
//! its spare list and goes back to it when its last holder is done with
//! it, as a finished task's box carries the next task of its type.

use std::cell::RefCell;
use std::rc::Rc;

use super::object::Placed;

/// Entries kept per spare list, the cap task boxes have: enough for the
/// handles and rounds a client has in flight at once.
const KEPT: usize = 32;

/// One `(engine, local target, unit)` per unit a collective round routed.
pub(super) type Routed = Vec<(u32, u32, u32)>;

/// Spare entries of one kind, at most [`KEPT`]; allocated at that
/// capacity, so keeping an entry never grows the list.
pub(super) struct SpareList<T>(RefCell<Vec<T>>);

impl<T> SpareList<T> {
    fn new() -> Self {
        SpareList(RefCell::new(Vec::with_capacity(KEPT)))
    }

    /// The spare kept last, if any.
    pub(super) fn take(&self) -> Option<T> {
        self.0.borrow_mut().pop()
    }

    /// Keep `spare` for a later take, unless [`KEPT`] are already waiting.
    pub(super) fn keep(&self, spare: T) {
        let mut spares = self.0.borrow_mut();
        if spares.len() < KEPT {
            spares.push(spare);
        }
    }
}

impl SpareList<Rc<[u32]>> {
    /// A list starting with `targets`: a spare one, if no request still
    /// holds it and it is long enough (a request addresses its run inside
    /// the list, so a longer list serves), else a new one.
    pub(super) fn fill(&self, targets: impl ExactSizeIterator<Item = u32>) -> Rc<[u32]> {
        if let Some(mut list) = self.take() {
            if let Some(slots) = Rc::get_mut(&mut list).filter(|s| s.len() >= targets.len()) {
                slots
                    .iter_mut()
                    .zip(targets)
                    .for_each(|(slot, t)| *slot = t);
                return list;
            }
        }
        targets.collect()
    }
}

/// What a [`super::DaosClient`] and its clones keep for reuse.
pub(super) struct Spares {
    /// Placements no handle holds ([`super::ObjectHandle::open`]).
    pub(super) placed: SpareList<Rc<Placed>>,
    /// Emptied routing buffers of finished rounds.
    pub(super) routed: SpareList<Routed>,
    /// Target lists of finished rounds; a request that timed out may still
    /// hold one.
    pub(super) targets: SpareList<Rc<[u32]>>,
}

impl Spares {
    pub(super) fn new() -> Self {
        Spares {
            placed: SpareList::new(),
            routed: SpareList::new(),
            targets: SpareList::new(),
        }
    }
}
