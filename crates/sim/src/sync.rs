//! Barrier and lock bookkeeping for the engine.

use std::collections::{HashMap, VecDeque};
use vcoma_types::SyncId;

/// State of the machine-wide barriers.
///
/// Every node participates in every barrier; a node arriving at a barrier
/// parks until the last node arrives, then all resume at the release time
/// (the maximum arrival time plus a fixed release cost).
#[derive(Debug, Clone)]
pub struct Barriers {
    nodes: usize,
    /// Per-barrier-id arrivals: the parked nodes in arrival order and the
    /// latest arrival time.
    waiting: HashMap<SyncId, (Vec<usize>, u64)>,
    /// The emptied arrival list of the last released barrier, kept for
    /// the next barrier id so an episode allocates nothing.
    spare: Vec<usize>,
    /// Fixed communication cost of a barrier episode, charged as sync time
    /// to every participant on top of the wait.
    pub release_cost: u64,
}

impl Barriers {
    /// Creates barrier state for `nodes` participants with the given
    /// release cost in cycles.
    pub fn new(nodes: usize, release_cost: u64) -> Self {
        Barriers { nodes, waiting: HashMap::new(), spare: Vec::new(), release_cost }
    }

    /// Node `node` arrives at barrier `id` at time `t`. Returns `None` if
    /// the node must park, or the release time when this arrival releases
    /// the barrier; every participant then resumes at it, and they are
    /// appended to `released` in arrival order.
    pub fn arrive(
        &mut self,
        id: SyncId,
        node: usize,
        t: u64,
        released: &mut Vec<usize>,
    ) -> Option<u64> {
        let (parked, latest) = self.waiting.entry(id).or_insert_with(|| {
            let mut list = std::mem::take(&mut self.spare);
            list.reserve_exact(self.nodes);
            (list, t)
        });
        debug_assert!(!parked.contains(&node), "node {node} arrived twice at {id}");
        parked.push(node);
        *latest = (*latest).max(t);
        if parked.len() < self.nodes {
            return None;
        }
        let (mut parked, latest) = self.waiting.remove(&id).expect("entry exists");
        released.append(&mut parked);
        self.spare = parked;
        Some(latest + self.release_cost)
    }
}

/// One lock's state: the holder (if held) plus the FIFO of waiting
/// `(node, arrival_time)` pairs. A `VecDeque` so a handover pops the head
/// in O(1) instead of shifting every waiter left.
type LockState = (Option<usize>, VecDeque<(usize, u64)>);

/// A lock operation the lock protocol forbids. The machine reports it as
/// [`SimError::Lock`](crate::SimError::Lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMisuse {
    /// The node tried to acquire a lock it already holds.
    Reacquire,
    /// The node released a lock it does not hold.
    ReleaseNotHeld,
}

/// State of the machine-wide locks.
#[derive(Debug, Clone, Default)]
pub struct Locks {
    /// Lock id → holder and wait queue.
    state: HashMap<SyncId, LockState>,
    /// Fixed cost of an acquire on a free lock (remote atomic round trip).
    pub acquire_cost: u64,
    /// Fixed cost of a release.
    pub release_cost: u64,
}

impl Locks {
    /// Creates lock state with the given acquire/release costs in cycles.
    pub fn new(acquire_cost: u64, release_cost: u64) -> Self {
        Locks { state: HashMap::new(), acquire_cost, release_cost }
    }

    /// Node `node` tries to acquire lock `id` at time `t`. Returns its
    /// resume time if the lock was free, `None` if the node must park
    /// behind the current holder.
    ///
    /// # Errors
    ///
    /// [`LockMisuse::Reacquire`] if `node` already holds the lock.
    pub fn acquire(&mut self, id: SyncId, node: usize, t: u64) -> Result<Option<u64>, LockMisuse> {
        let (holder, queue) = self.state.entry(id).or_default();
        match *holder {
            None => {
                *holder = Some(node);
                Ok(Some(t + self.acquire_cost))
            }
            Some(h) if h == node => Err(LockMisuse::Reacquire),
            Some(_) => {
                queue.push_back((node, t));
                Ok(None)
            }
        }
    }

    /// Node `node` releases lock `id` at time `t`. Returns the releasing
    /// node's resume time, plus the next waiter's `(node, resume_time)` if
    /// one was parked.
    ///
    /// # Errors
    ///
    /// [`LockMisuse::ReleaseNotHeld`] if `node` does not hold the lock.
    pub fn release(
        &mut self,
        id: SyncId,
        node: usize,
        t: u64,
    ) -> Result<(u64, Option<(usize, u64)>), LockMisuse> {
        let Some((holder, queue)) = self.state.get_mut(&id).filter(|(h, _)| *h == Some(node))
        else {
            return Err(LockMisuse::ReleaseNotHeld);
        };
        let own = t + self.release_cost;
        let Some((next, arrival)) = queue.pop_front() else {
            *holder = None;
            return Ok((own, None));
        };
        *holder = Some(next);
        Ok((own, Some((next, t.max(arrival) + self.acquire_cost))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut b = Barriers::new(3, 32);
        let mut released = Vec::new();
        assert!(b.arrive(SyncId(0), 0, 100, &mut released).is_none());
        assert!(b.arrive(SyncId(0), 1, 200, &mut released).is_none());
        assert_eq!(b.waiting.len(), 1);
        // Release at max(100,200,150)+32 = 232 for everyone.
        assert_eq!(b.arrive(SyncId(0), 2, 150, &mut released), Some(232));
        assert_eq!(b.waiting.len(), 0);
        assert_eq!(released, vec![0, 1, 2], "released in arrival order");
        // The emptied arrival list, sized to the node count, serves the
        // next barrier id.
        assert_eq!(b.spare.capacity(), 3);
        assert!(b.arrive(SyncId(1), 2, 300, &mut released).is_none());
        assert_eq!((b.spare.capacity(), b.waiting[&SyncId(1)].0.capacity()), (0, 3));
    }

    #[test]
    fn distinct_barrier_ids_are_independent() {
        let mut b = Barriers::new(2, 0);
        let mut released = Vec::new();
        assert!(b.arrive(SyncId(0), 0, 10, &mut released).is_none());
        assert!(b.arrive(SyncId(1), 1, 20, &mut released).is_none());
        assert_eq!(b.waiting.len(), 2);
        assert_eq!(b.arrive(SyncId(0), 1, 30, &mut released), Some(30));
        assert_eq!(b.arrive(SyncId(1), 0, 40, &mut released), Some(40));
        assert_eq!(released, vec![0, 1, 1, 0]);
    }

    #[test]
    fn free_lock_acquires_immediately() {
        let mut l = Locks::new(32, 16);
        assert_eq!(l.acquire(SyncId(5), 0, 100).unwrap(), Some(132));
        assert!(l.acquire(SyncId(5), 1, 100).unwrap().is_none(), "the lock is now held");
    }

    #[test]
    fn contended_lock_parks_then_hands_over() {
        let mut l = Locks::new(32, 16);
        l.acquire(SyncId(5), 0, 100).unwrap().unwrap();
        assert!(l.acquire(SyncId(5), 1, 110).unwrap().is_none());
        assert_eq!(l.release(SyncId(5), 0, 500).unwrap(), (516, Some((1, 532))));
    }

    #[test]
    fn handover_to_late_waiter_uses_waiter_arrival() {
        let mut l = Locks::new(10, 0);
        l.acquire(SyncId(1), 0, 0).unwrap().unwrap();
        assert!(l.acquire(SyncId(1), 1, 1000).unwrap().is_none());
        // Holder releases earlier than... release at t=50 < arrival 1000 is
        // impossible in a real run (the waiter parked after the holder
        // acquired), but the max() guard keeps time monotone anyway.
        let (_, next) = l.release(SyncId(1), 0, 50).unwrap();
        assert_eq!(next, Some((1, 1010)));
    }

    #[test]
    fn release_frees_lock_when_no_waiters() {
        let mut l = Locks::new(32, 16);
        l.acquire(SyncId(5), 0, 0).unwrap().unwrap();
        let (_, next) = l.release(SyncId(5), 0, 100).unwrap();
        assert!(next.is_none());
        // Re-acquire works.
        assert!(l.acquire(SyncId(5), 2, 200).unwrap().is_some());
    }

    #[test]
    fn many_waiters_hand_over_in_strict_fifo_order() {
        // Regression for the old `queue.remove(0)` implementation: the
        // head of the wait queue — and only the head — must be woken on
        // every release, in arrival order.
        let mut l = Locks::new(32, 16);
        let id = SyncId(2);
        l.acquire(id, 0, 0).unwrap().unwrap();
        for waiter in 1..32usize {
            assert!(l.acquire(id, waiter, 10 * waiter as u64).unwrap().is_none());
        }
        let mut t = 1_000;
        for expected in 1..32usize {
            let holder = expected - 1;
            let (own, next) = l.release(id, holder, t).unwrap();
            assert_eq!(own, t + 16);
            let (node, resume) = next.expect("a waiter is parked");
            assert_eq!(node, expected, "handover must follow arrival order");
            assert_eq!(resume, t + 32);
            t = resume + 100;
        }
        let (_, next) = l.release(id, 31, t).unwrap();
        assert!(next.is_none());
        assert!(l.acquire(id, 0, t).unwrap().is_some(), "the last release frees the lock");
    }

    #[test]
    fn release_by_non_holder_is_an_error() {
        let mut l = Locks::new(0, 0);
        assert_eq!(l.release(SyncId(1), 0, 0), Err(LockMisuse::ReleaseNotHeld), "unknown lock");
        l.acquire(SyncId(1), 0, 0).unwrap().unwrap();
        assert_eq!(l.release(SyncId(1), 1, 10), Err(LockMisuse::ReleaseNotHeld), "held by 0");
        l.release(SyncId(1), 0, 10).unwrap();
        assert_eq!(l.release(SyncId(1), 0, 20), Err(LockMisuse::ReleaseNotHeld), "free lock");
    }
}
