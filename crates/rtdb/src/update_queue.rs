//! The application-level update queue (paper §3.3, §4.2).
//!
//! Unapplied updates are kept **in generation-time order** (not arrival
//! order) so the system can (a) apply updates in order even when the network
//! reorders them, and (b) discard expired updates under the Maximum Age
//! criterion with a constant-time head check.
//!
//! The queue supports both service disciplines studied in the paper:
//! * **FIFO** — pop the oldest generation first;
//! * **LIFO** — pop the newest generation first (maximises the remaining
//!   lifetime of the installed value).
//!
//! It is bounded at `UQ_max`; when a new update would overflow the queue the
//! *oldest* update is discarded (§4.2) — or, under a non-default
//! [`ShedPolicy`], another victim chosen by the configured shedding rule.
//! The structure also supports the
//! paper's future-work extension of a hash index over queued updates: in
//! dedup mode, inserting an update removes any older queued update for the
//! same object (complete updates to snapshot views make all but the newest
//! worthless), which both bounds the queue under UU and makes On-Demand
//! lookups constant time.
//!
//! # Layout
//!
//! This is the hottest structure in the simulator (~400 inserts per
//! simulated second, every one of Figures 3–16 sweeps thousands of seconds),
//! so it is built for the cache, not for generality: update nodes live in a
//! slab arena (`Vec<Node>` plus an intrusive free list, so steady state
//! performs **zero allocations**) and each node is threaded onto two
//! intrusive doubly-linked lists —
//!
//! * the **global list**, sorted by `(generation_ts, seq)`, giving O(1)
//!   FIFO/LIFO dequeue, O(1) overflow discard and O(expired) MA expiry;
//! * a **per-object chain** anchored in a dense `Vec` indexed by
//!   [`ViewObjectId`], giving O(1) newest-for-object lookup and O(1)
//!   per-object drain.
//!
//! Enqueue finds the global position by walking back from the tail past
//! larger keys. Updates arrive nearly sorted by generation time (an arrival
//! is out of order only w.r.t. updates generated after it that arrived
//! before it, ~`λ_u · mean_age / 2` of them), so the walk is amortised O(1)
//! on the simulator's streams. The seed `BTreeMap`-based implementation
//! survives under `tests/reference/` as the oracle `tests/prop_update_queue.rs`
//! compares this one against.

use serde::{Deserialize, Serialize};
use strip_sim::time::SimTime;

use crate::object::{Importance, ViewObjectId};
use crate::shed::ShedPolicy;
use crate::update::Update;

/// Key ordering queued updates by generation time (sequence number breaks
/// ties deterministically).
type QueueKey = (SimTime, u64);

/// Sentinel node index meaning "no node".
const NIL: u32 = u32::MAX;

/// One slab entry: the update plus its links on the global list
/// (`prev`/`next`) and on its object's chain (`obj_prev`/`obj_next`). Free
/// entries reuse `next` as the free-list link.
#[derive(Debug, Clone, Copy)]
struct Node {
    update: Update,
    prev: u32,
    next: u32,
    obj_prev: u32,
    obj_next: u32,
}

/// Head and tail of one object's chain (both `NIL` when empty). The chain
/// is kept sorted by key, so `tail` is the newest queued update.
#[derive(Debug, Clone, Copy)]
struct ObjChain {
    head: u32,
    tail: u32,
}

const EMPTY_CHAIN: ObjChain = ObjChain {
    head: NIL,
    tail: NIL,
};

/// Outcome of an insert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertOutcome {
    /// Older same-object updates removed by dedup mode.
    pub deduped: usize,
    /// The update discarded because the queue was full (may be the
    /// just-inserted update itself if it was the oldest).
    pub displaced: Option<Update>,
}

/// Generation-ordered bounded buffer of unapplied updates.
///
/// # Example
///
/// ```
/// use strip_db::object::{Importance, ViewObjectId};
/// use strip_db::update::Update;
/// use strip_db::update_queue::UpdateQueue;
/// use strip_sim::time::SimTime;
///
/// let mut q = UpdateQueue::new(100, false);
/// for (seq, gen) in [(0u64, 3.0), (1, 1.0), (2, 2.0)] {
///     q.insert(Update {
///         seq,
///         object: ViewObjectId::new(Importance::Low, seq as u32),
///         generation_ts: SimTime::from_secs(gen),
///         arrival_ts: SimTime::from_secs(gen + 0.1),
///         payload: 0.0,
///         attr_mask: Update::COMPLETE,
///     });
/// }
/// // FIFO service returns the oldest *generation*, not the first arrival.
/// assert_eq!(q.pop_oldest().unwrap().seq, 1);
/// // MA expiry discards from the head in O(expired).
/// assert_eq!(q.discard_expired(SimTime::from_secs(9.1), 7.0), 1);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UpdateQueue {
    nodes: Vec<Node>,
    /// Head of the intrusive free list through `Node::next`.
    free: u32,
    /// Oldest-key node of the global list.
    head: u32,
    /// Newest-key node of the global list.
    tail: u32,
    /// Per-object anchors; slot = `index * 2 + class.index()`.
    chains: Vec<ObjChain>,
    len: usize,
    capacity: usize,
    dedup: bool,
    shed: ShedPolicy,
    overflow_dropped: u64,
    expired_dropped: u64,
    dedup_dropped: u64,
}

impl UpdateQueue {
    /// Creates a queue bounded at `capacity` updates with the paper's
    /// overflow rule (discard the oldest generation). With `dedup` enabled
    /// the hash-index extension keeps at most one (the newest) update per
    /// object.
    #[must_use]
    pub fn new(capacity: usize, dedup: bool) -> Self {
        UpdateQueue::with_shed(capacity, dedup, ShedPolicy::DropOldest)
    }

    /// Creates a queue bounded at `capacity` updates with an explicit
    /// overflow shedding policy.
    #[must_use]
    pub fn with_shed(capacity: usize, dedup: bool, shed: ShedPolicy) -> Self {
        UpdateQueue {
            nodes: Vec::with_capacity(capacity.min(1 << 16)),
            free: NIL,
            head: NIL,
            tail: NIL,
            chains: Vec::new(),
            len: 0,
            capacity,
            dedup,
            shed,
            overflow_dropped: 0,
            expired_dropped: 0,
            dedup_dropped: 0,
        }
    }

    fn key(u: &Update) -> QueueKey {
        (u.generation_ts, u.seq)
    }

    fn slot_of(object: ViewObjectId) -> usize {
        object.index as usize * 2 + object.class.index()
    }

    fn object_at(slot: usize) -> ViewObjectId {
        let class = if slot.is_multiple_of(2) {
            Importance::Low
        } else {
            Importance::High
        };
        ViewObjectId::new(class, (slot / 2) as u32)
    }

    fn chain(&self, object: ViewObjectId) -> ObjChain {
        self.chains
            .get(Self::slot_of(object))
            .copied()
            .unwrap_or(EMPTY_CHAIN)
    }

    fn node_key(&self, idx: u32) -> QueueKey {
        Self::key(&self.nodes[idx as usize].update)
    }

    fn alloc(&mut self, update: Update) -> u32 {
        let fresh = Node {
            update,
            prev: NIL,
            next: NIL,
            obj_prev: NIL,
            obj_next: NIL,
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = fresh;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("slab fits in u32 indices");
            self.nodes.push(fresh);
            idx
        }
    }

    /// Threads `update` onto both lists at its key-sorted position.
    fn link(&mut self, update: Update) {
        let key = Self::key(&update);
        let object = update.object;
        let idx = self.alloc(update);
        // Global list: walk back from the tail past larger keys. Streams are
        // nearly generation-sorted, so this is a short hop in practice.
        let mut after = self.tail;
        while after != NIL && self.node_key(after) > key {
            after = self.nodes[after as usize].prev;
        }
        if after == NIL {
            self.nodes[idx as usize].next = self.head;
            if self.head != NIL {
                self.nodes[self.head as usize].prev = idx;
            } else {
                self.tail = idx;
            }
            self.head = idx;
        } else {
            let next = self.nodes[after as usize].next;
            self.nodes[idx as usize].prev = after;
            self.nodes[idx as usize].next = next;
            self.nodes[after as usize].next = idx;
            if next != NIL {
                self.nodes[next as usize].prev = idx;
            } else {
                self.tail = idx;
            }
        }
        // Object chain: same backward walk, usually empty or a single hop.
        let slot = Self::slot_of(object);
        if slot >= self.chains.len() {
            self.chains.resize(slot + 1, EMPTY_CHAIN);
        }
        let mut oafter = self.chains[slot].tail;
        while oafter != NIL && self.node_key(oafter) > key {
            oafter = self.nodes[oafter as usize].obj_prev;
        }
        if oafter == NIL {
            let old_head = self.chains[slot].head;
            self.nodes[idx as usize].obj_next = old_head;
            if old_head != NIL {
                self.nodes[old_head as usize].obj_prev = idx;
            } else {
                self.chains[slot].tail = idx;
            }
            self.chains[slot].head = idx;
        } else {
            let onext = self.nodes[oafter as usize].obj_next;
            self.nodes[idx as usize].obj_prev = oafter;
            self.nodes[idx as usize].obj_next = onext;
            self.nodes[oafter as usize].obj_next = idx;
            if onext != NIL {
                self.nodes[onext as usize].obj_prev = idx;
            } else {
                self.chains[slot].tail = idx;
            }
        }
        self.len += 1;
    }

    /// Detaches node `idx` from both lists and returns it to the free list.
    fn unlink(&mut self, idx: u32) -> Update {
        let node = self.nodes[idx as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
        let slot = Self::slot_of(node.update.object);
        if node.obj_prev != NIL {
            self.nodes[node.obj_prev as usize].obj_next = node.obj_next;
        } else {
            self.chains[slot].head = node.obj_next;
        }
        if node.obj_next != NIL {
            self.nodes[node.obj_next as usize].obj_prev = node.obj_prev;
        } else {
            self.chains[slot].tail = node.obj_prev;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
        node.update
    }

    /// Enqueues `update`, applying dedup (if enabled) and the overflow
    /// policy.
    pub fn insert(&mut self, update: Update) -> InsertOutcome {
        let mut outcome = InsertOutcome {
            deduped: 0,
            displaced: None,
        };
        if self.dedup {
            let new_key = Self::key(&update);
            let chain = self.chain(update.object);
            // A newer (or equal) update for the same object is already
            // queued: the arrival is worthless — drop it instead.
            if chain.tail != NIL && self.node_key(chain.tail) >= new_key {
                outcome.deduped = 1;
                self.dedup_dropped += 1;
                return outcome;
            }
            // Otherwise every queued same-object update is older (the chain
            // tail is its newest): the arrival supersedes the whole chain.
            let mut cur = chain.head;
            while cur != NIL {
                let next = self.nodes[cur as usize].obj_next;
                self.unlink(cur);
                outcome.deduped += 1;
                self.dedup_dropped += 1;
                cur = next;
            }
        }
        self.link(update);
        if self.len > self.capacity {
            // Shed one queued update — possibly the new arrival itself
            // (it is already linked, so it competes on equal terms).
            let victim = self.overflow_victim();
            outcome.displaced = Some(self.unlink(victim));
            self.overflow_dropped += 1;
        }
        outcome
    }

    /// Picks the node the shedding policy sacrifices on overflow. The
    /// paper's rule ([`ShedPolicy::DropOldest`]) stays O(1); the scanning
    /// policies walk the global list from the oldest generation, which is
    /// fine because this only runs on the overflow path.
    fn overflow_victim(&self) -> u32 {
        match self.shed {
            ShedPolicy::DropOldest => self.head,
            ShedPolicy::DropNewest => self.tail,
            ShedPolicy::DropLowestImportance => {
                let mut cur = self.head;
                while cur != NIL {
                    if self.nodes[cur as usize].update.object.class == Importance::Low {
                        return cur;
                    }
                    cur = self.nodes[cur as usize].next;
                }
                self.head
            }
            ShedPolicy::CoalescePerObject => {
                // A node that is not its object chain's tail is superseded
                // by a newer queued update for the same object; installing
                // it would be wasted work. In dedup mode every node is its
                // chain's tail, so this degenerates to DropOldest.
                let mut cur = self.head;
                while cur != NIL {
                    if self.nodes[cur as usize].obj_next != NIL {
                        return cur;
                    }
                    cur = self.nodes[cur as usize].next;
                }
                self.head
            }
        }
    }

    /// Removes the update with the oldest generation (FIFO service).
    pub fn pop_oldest(&mut self) -> Option<Update> {
        (self.head != NIL).then(|| self.unlink(self.head))
    }

    /// Removes the update with the newest generation (LIFO service).
    pub fn pop_newest(&mut self) -> Option<Update> {
        (self.tail != NIL).then(|| self.unlink(self.tail))
    }

    /// Discards every queued update whose value age exceeds `alpha` at
    /// `now` (MA expiry, performed at scheduling points). Returns how many
    /// were discarded. Because the queue is generation-ordered this only
    /// inspects the head.
    pub fn discard_expired(&mut self, now: SimTime, alpha: f64) -> usize {
        let mut n = 0;
        while self.head != NIL {
            // Same age test as `Update::expired_at`, so the head check and
            // per-update expiry agree bit-for-bit.
            let gen_ts = self.nodes[self.head as usize].update.generation_ts;
            if now.since(gen_ts) <= alpha {
                break;
            }
            self.unlink(self.head);
            n += 1;
        }
        self.expired_dropped += n as u64;
        n
    }

    /// The newest queued update for `object`, if any (what an On-Demand
    /// refresh or an Unapplied-Update staleness check looks for).
    #[must_use]
    pub fn newest_for(&self, object: ViewObjectId) -> Option<&Update> {
        let tail = self.chain(object).tail;
        (tail != NIL).then(|| &self.nodes[tail as usize].update)
    }

    /// Removes and returns the newest queued update for `object`.
    pub fn take_newest_for(&mut self, object: ViewObjectId) -> Option<Update> {
        let tail = self.chain(object).tail;
        (tail != NIL).then(|| self.unlink(tail))
    }

    /// True if any update for `object` is queued.
    #[must_use]
    pub fn has_pending_for(&self, object: ViewObjectId) -> bool {
        self.chain(object).tail != NIL
    }

    /// Removes the newest update for the object with the highest `score`
    /// (access-driven service, extension): scans the per-object anchors
    /// (O(anchor slots)), breaking score ties by object id so service order
    /// is deterministic.
    pub fn pop_hottest<F>(&mut self, score: F) -> Option<Update>
    where
        F: Fn(ViewObjectId) -> u64,
    {
        // `(score, Reverse(id))` is a strict total order over the distinct
        // queued objects, so the winner is independent of scan order and
        // matches the seed implementation's HashMap-keyed scan.
        let hottest = self
            .chains
            .iter()
            .enumerate()
            .filter(|(_, c)| c.tail != NIL)
            .map(|(slot, _)| Self::object_at(slot))
            .max_by_key(|&id| (score(id), std::cmp::Reverse(id)))?;
        self.take_newest_for(hottest)
    }

    /// Number of queued updates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no updates are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured bound (`UQ_max`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Updates discarded by the overflow policy so far.
    #[must_use]
    pub fn overflow_dropped(&self) -> u64 {
        self.overflow_dropped
    }

    /// Updates discarded as MA-expired so far.
    #[must_use]
    pub fn expired_dropped(&self) -> u64 {
        self.expired_dropped
    }

    /// Updates removed as superseded by dedup mode so far.
    #[must_use]
    pub fn dedup_dropped(&self) -> u64 {
        self.dedup_dropped
    }

    /// Iterates queued updates in generation order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &Update> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let node = &self.nodes[cur as usize];
            cur = node.next;
            Some(&node.update)
        })
    }

    /// Slab high-water mark: how many node slots have ever been allocated
    /// (diagnostic; steady state reuses freed slots instead of growing).
    #[doc(hidden)]
    #[must_use]
    pub fn slab_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Internal consistency check used by tests: both intrusive lists are
    /// sorted, mutually consistent, and describe the same `len` nodes.
    #[doc(hidden)]
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        // Walk the global list: strictly ascending keys, consistent back
        // links, `len` nodes exactly.
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        let mut last_key = None;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if node.prev != prev {
                return false;
            }
            let key = Self::key(&node.update);
            if last_key.is_some_and(|k| k >= key) {
                return false;
            }
            last_key = Some(key);
            seen[cur as usize] = true;
            count += 1;
            if count > self.len {
                return false;
            }
            prev = cur;
            cur = node.next;
        }
        if count != self.len || self.tail != prev {
            return false;
        }
        // Walk every object chain: sorted, object-homogeneous, and covering
        // exactly the nodes of the global list.
        let mut chained = 0usize;
        for (slot, chain) in self.chains.iter().enumerate() {
            let object = Self::object_at(slot);
            let mut oprev = NIL;
            let mut cur = chain.head;
            let mut last_key = None;
            while cur != NIL {
                let node = &self.nodes[cur as usize];
                if node.obj_prev != oprev || node.update.object != object || !seen[cur as usize] {
                    return false;
                }
                let key = Self::key(&node.update);
                if last_key.is_some_and(|k| k >= key) {
                    return false;
                }
                last_key = Some(key);
                chained += 1;
                if chained > self.len {
                    return false;
                }
                oprev = cur;
                cur = node.obj_next;
            }
            if chain.tail != oprev {
                return false;
            }
        }
        chained == self.len
    }
}

/// A pair of update queues partitioned by importance (paper §4.2: "It would
/// also be possible to split the update queue into two queues, and to
/// partition updates by their importance. When no transactions were waiting,
/// updates could first be installed out of the high importance queue. This
/// enhancement is a subject for future study.") — implemented here. In
/// unsplit mode it degenerates to a single [`UpdateQueue`].
#[derive(Debug, Clone)]
pub struct DualUpdateQueue {
    /// Low-importance updates — or everything, when not split.
    low: UpdateQueue,
    /// High-importance updates when split mode is on.
    high: Option<UpdateQueue>,
}

impl DualUpdateQueue {
    /// Creates the queue set. With `split`, each partition is bounded at
    /// `capacity` separately (the bound protects memory per queue).
    #[must_use]
    pub fn new(capacity: usize, dedup: bool, split: bool) -> Self {
        DualUpdateQueue::with_shed(capacity, dedup, split, ShedPolicy::DropOldest)
    }

    /// Creates the queue set with an explicit overflow shedding policy
    /// applied to each partition.
    #[must_use]
    pub fn with_shed(capacity: usize, dedup: bool, split: bool, shed: ShedPolicy) -> Self {
        DualUpdateQueue {
            low: UpdateQueue::with_shed(capacity, dedup, shed),
            high: split.then(|| UpdateQueue::with_shed(capacity, dedup, shed)),
        }
    }

    fn queue_for(&self, object: ViewObjectId) -> &UpdateQueue {
        match (&self.high, object.class) {
            (Some(high), crate::object::Importance::High) => high,
            _ => &self.low,
        }
    }

    fn queue_for_mut(&mut self, object: ViewObjectId) -> &mut UpdateQueue {
        match (&mut self.high, object.class) {
            (Some(high), crate::object::Importance::High) => high,
            _ => &mut self.low,
        }
    }

    /// Enqueues an update into its partition.
    pub fn insert(&mut self, update: Update) -> InsertOutcome {
        self.queue_for_mut(update.object).insert(update)
    }

    /// Removes the next update to install: high-importance partition first,
    /// then low, each under the given discipline (`newest_first` = LIFO).
    pub fn pop(&mut self, newest_first: bool) -> Option<Update> {
        let pick = |q: &mut UpdateQueue| {
            if newest_first {
                q.pop_newest()
            } else {
                q.pop_oldest()
            }
        };
        if let Some(high) = self.high.as_mut() {
            if let Some(u) = pick(high) {
                return Some(u);
            }
        }
        pick(&mut self.low)
    }

    /// Discards MA-expired updates from both partitions.
    pub fn discard_expired(&mut self, now: SimTime, alpha: f64) -> usize {
        let mut n = self.low.discard_expired(now, alpha);
        if let Some(high) = self.high.as_mut() {
            n += high.discard_expired(now, alpha);
        }
        n
    }

    /// The newest queued update for `object`.
    #[must_use]
    pub fn newest_for(&self, object: ViewObjectId) -> Option<&Update> {
        self.queue_for(object).newest_for(object)
    }

    /// Removes and returns the newest queued update for `object`.
    pub fn take_newest_for(&mut self, object: ViewObjectId) -> Option<Update> {
        self.queue_for_mut(object).take_newest_for(object)
    }

    /// Access-driven pop: hottest object first, high partition taking
    /// precedence in split mode.
    pub fn pop_hottest<F>(&mut self, score: F) -> Option<Update>
    where
        F: Fn(ViewObjectId) -> u64,
    {
        if let Some(high) = self.high.as_mut() {
            if let Some(u) = high.pop_hottest(&score) {
                return Some(u);
            }
        }
        self.low.pop_hottest(score)
    }

    /// Total queued updates across partitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.low.len() + self.high.as_ref().map_or(0, UpdateQueue::len)
    }

    /// True when both partitions are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total overflow discards.
    #[must_use]
    pub fn overflow_dropped(&self) -> u64 {
        self.low.overflow_dropped() + self.high.as_ref().map_or(0, UpdateQueue::overflow_dropped)
    }

    /// Total MA-expiry discards.
    #[must_use]
    pub fn expired_dropped(&self) -> u64 {
        self.low.expired_dropped() + self.high.as_ref().map_or(0, UpdateQueue::expired_dropped)
    }

    /// Total dedup removals.
    #[must_use]
    pub fn dedup_dropped(&self) -> u64 {
        self.low.dedup_dropped() + self.high.as_ref().map_or(0, UpdateQueue::dedup_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Importance;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn upd(seq: u64, obj_idx: u32, gen: f64) -> Update {
        Update {
            seq,
            object: ViewObjectId::new(Importance::Low, obj_idx),
            generation_ts: t(gen),
            arrival_ts: t(gen + 0.05),
            payload: seq as f64,
            attr_mask: Update::COMPLETE,
        }
    }

    #[test]
    fn generation_order_not_arrival_order() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 0, 5.0)); // arrives first, generated later
        q.insert(upd(1, 1, 2.0)); // arrives second, generated earlier
        assert_eq!(q.pop_oldest().unwrap().seq, 1);
        assert_eq!(q.pop_oldest().unwrap().seq, 0);
    }

    #[test]
    fn lifo_pops_newest_generation() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 0, 1.0));
        q.insert(upd(1, 1, 3.0));
        q.insert(upd(2, 2, 2.0));
        assert_eq!(q.pop_newest().unwrap().seq, 1);
        assert_eq!(q.pop_newest().unwrap().seq, 2);
        assert_eq!(q.pop_newest().unwrap().seq, 0);
        assert!(q.pop_newest().is_none());
    }

    #[test]
    fn overflow_discards_oldest() {
        let mut q = UpdateQueue::new(2, false);
        q.insert(upd(0, 0, 1.0));
        q.insert(upd(1, 1, 2.0));
        let out = q.insert(upd(2, 2, 3.0));
        assert_eq!(out.displaced.unwrap().seq, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.overflow_dropped(), 1);
        assert!(q.check_invariants());
    }

    #[test]
    fn overflow_can_discard_the_arrival_itself() {
        let mut q = UpdateQueue::new(2, false);
        q.insert(upd(0, 0, 5.0));
        q.insert(upd(1, 1, 6.0));
        // The arrival is the oldest generation, so it is the one discarded.
        let out = q.insert(upd(2, 2, 1.0));
        assert_eq!(out.displaced.unwrap().seq, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expiry_discards_only_old_generations() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 0, 1.0));
        q.insert(upd(1, 1, 4.0));
        q.insert(upd(2, 2, 9.5));
        // At t = 10 with alpha = 7, generations before 3.0 expire.
        assert_eq!(q.discard_expired(t(10.0), 7.0), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.expired_dropped(), 1);
        // Exactly at the boundary (age == alpha) is not expired.
        assert_eq!(q.discard_expired(t(11.0), 7.0), 0);
        assert_eq!(q.discard_expired(t(11.1), 7.0), 1);
        assert!(q.check_invariants());
    }

    #[test]
    fn newest_for_object_across_duplicates() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 7, 1.0));
        q.insert(upd(1, 7, 3.0));
        q.insert(upd(2, 7, 2.0));
        q.insert(upd(3, 8, 9.0));
        assert_eq!(
            q.newest_for(ViewObjectId::new(Importance::Low, 7))
                .unwrap()
                .seq,
            1
        );
        let taken = q
            .take_newest_for(ViewObjectId::new(Importance::Low, 7))
            .unwrap();
        assert_eq!(taken.seq, 1);
        // Older duplicates remain when dedup is off.
        assert!(q.has_pending_for(ViewObjectId::new(Importance::Low, 7)));
        assert_eq!(q.len(), 3);
        assert!(q.check_invariants());
    }

    #[test]
    fn dedup_keeps_only_newest_per_object() {
        let mut q = UpdateQueue::new(10, true);
        q.insert(upd(0, 7, 1.0));
        q.insert(upd(1, 7, 2.0));
        let out = q.insert(upd(2, 7, 3.0));
        assert_eq!(out.deduped, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dedup_dropped(), 2);
        assert_eq!(
            q.newest_for(ViewObjectId::new(Importance::Low, 7))
                .unwrap()
                .seq,
            2
        );
        assert!(q.check_invariants());
    }

    #[test]
    fn dedup_discards_late_older_arrival() {
        let mut q = UpdateQueue::new(10, true);
        q.insert(upd(0, 7, 5.0));
        // An older generation arriving late is itself worthless: dropped.
        let out = q.insert(upd(1, 7, 2.0));
        assert_eq!(out.deduped, 1);
        assert!(out.displaced.is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.newest_for(ViewObjectId::new(Importance::Low, 7))
                .unwrap()
                .seq,
            0
        );
        assert_eq!(q.dedup_dropped(), 1);
    }

    #[test]
    fn missing_object_lookups() {
        let mut q = UpdateQueue::new(4, false);
        let ghost = ViewObjectId::new(Importance::High, 99);
        assert!(q.newest_for(ghost).is_none());
        assert!(q.take_newest_for(ghost).is_none());
        assert!(!q.has_pending_for(ghost));
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 4);
    }

    fn hupd(seq: u64, obj_idx: u32, gen: f64) -> Update {
        Update {
            seq,
            object: ViewObjectId::new(Importance::High, obj_idx),
            generation_ts: t(gen),
            arrival_ts: t(gen + 0.05),
            payload: seq as f64,
            attr_mask: Update::COMPLETE,
        }
    }

    #[test]
    fn dual_unsplit_behaves_like_single_queue() {
        let mut q = DualUpdateQueue::new(10, false, false);
        q.insert(upd(0, 0, 2.0));
        q.insert(hupd(1, 0, 1.0));
        // FIFO over the single merged queue: oldest generation first.
        assert_eq!(q.pop(false).unwrap().seq, 1);
        assert_eq!(q.pop(false).unwrap().seq, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn dual_split_serves_high_importance_first() {
        let mut q = DualUpdateQueue::new(10, false, true);
        q.insert(upd(0, 0, 1.0)); // low, oldest generation overall
        q.insert(hupd(1, 0, 5.0)); // high
        q.insert(hupd(2, 1, 3.0)); // high
                                   // High partition drains first (FIFO within it), then low.
        assert_eq!(q.pop(false).unwrap().seq, 2);
        assert_eq!(q.pop(false).unwrap().seq, 1);
        assert_eq!(q.pop(false).unwrap().seq, 0);
        assert!(q.pop(false).is_none());
    }

    #[test]
    fn dual_split_routes_lookups_by_class() {
        let mut q = DualUpdateQueue::new(10, false, true);
        q.insert(upd(0, 7, 1.0));
        q.insert(hupd(1, 7, 2.0));
        assert_eq!(
            q.newest_for(ViewObjectId::new(Importance::Low, 7))
                .unwrap()
                .seq,
            0
        );
        assert_eq!(
            q.newest_for(ViewObjectId::new(Importance::High, 7))
                .unwrap()
                .seq,
            1
        );
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.take_newest_for(ViewObjectId::new(Importance::High, 7))
                .unwrap()
                .seq,
            1
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dual_split_expiry_and_counters_span_partitions() {
        let mut q = DualUpdateQueue::new(2, false, true);
        q.insert(upd(0, 0, 1.0));
        q.insert(hupd(1, 0, 1.5));
        q.insert(upd(2, 1, 2.0));
        q.insert(upd(3, 2, 3.0)); // low partition overflows (cap 2)
        assert_eq!(q.overflow_dropped(), 1);
        assert_eq!(q.discard_expired(t(10.0), 7.0), 2); // gens 1.5 and 2.0
        assert_eq!(q.expired_dropped(), 2);
    }

    #[test]
    fn pop_hottest_orders_by_score_then_id() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 3, 1.0));
        q.insert(upd(1, 3, 2.0)); // newest for object 3
        q.insert(upd(2, 5, 0.5));
        q.insert(upd(3, 7, 3.0));
        let score = |id: ViewObjectId| match id.index {
            5 => 10u64,
            3 => 10,
            _ => 1,
        };
        // Tie between objects 3 and 5 broken by the smaller id; newest
        // update for that object pops. Object 3 still holds its older
        // update, so it wins again before object 5's score drops out.
        assert_eq!(q.pop_hottest(score).unwrap().seq, 1);
        assert_eq!(q.pop_hottest(score).unwrap().seq, 0);
        assert_eq!(q.pop_hottest(score).unwrap().seq, 2);
        assert_eq!(q.pop_hottest(score).unwrap().seq, 3);
        assert!(q.pop_hottest(score).is_none());
        assert!(q.check_invariants());
    }

    #[test]
    fn dual_pop_hottest_prefers_high_partition() {
        let mut q = DualUpdateQueue::new(10, false, true);
        q.insert(upd(0, 0, 1.0)); // low, hot
        q.insert(hupd(1, 9, 1.0)); // high, cold
        let score = |id: ViewObjectId| u64::from(id.class == Importance::Low) * 100;
        // Split mode: high partition drains first regardless of heat.
        assert_eq!(q.pop_hottest(score).unwrap().seq, 1);
        assert_eq!(q.pop_hottest(score).unwrap().seq, 0);
    }

    #[test]
    fn shed_drop_newest_rejects_freshest_generation() {
        let mut q = UpdateQueue::with_shed(2, false, ShedPolicy::DropNewest);
        q.insert(upd(0, 0, 1.0));
        q.insert(upd(1, 1, 2.0));
        // The arrival has the newest generation, so it is the victim.
        let out = q.insert(upd(2, 2, 3.0));
        assert_eq!(out.displaced.unwrap().seq, 2);
        // An arrival older than the queued tail evicts that tail instead.
        let out = q.insert(upd(3, 3, 0.5));
        assert_eq!(out.displaced.unwrap().seq, 1);
        assert_eq!(q.overflow_dropped(), 2);
        assert!(q.check_invariants());
    }

    #[test]
    fn shed_drop_lowest_importance_spares_high() {
        let mut q = UpdateQueue::with_shed(2, false, ShedPolicy::DropLowestImportance);
        q.insert(hupd(0, 0, 1.0));
        q.insert(upd(1, 1, 2.0));
        // Oldest low-importance update is shed even though a high one is
        // older.
        let out = q.insert(hupd(2, 2, 3.0));
        assert_eq!(out.displaced.unwrap().seq, 1);
        // All-high queue falls back to the oldest overall.
        let out = q.insert(hupd(3, 3, 4.0));
        assert_eq!(out.displaced.unwrap().seq, 0);
        assert!(q.check_invariants());
    }

    #[test]
    fn shed_coalesce_prefers_superseded_updates() {
        let mut q = UpdateQueue::with_shed(3, false, ShedPolicy::CoalescePerObject);
        q.insert(upd(0, 7, 1.0)); // superseded by seq 2
        q.insert(upd(1, 8, 2.0));
        q.insert(upd(2, 7, 3.0));
        let out = q.insert(upd(3, 9, 4.0));
        assert_eq!(out.displaced.unwrap().seq, 0);
        // No superseded update left: falls back to the oldest generation.
        let out = q.insert(upd(4, 10, 5.0));
        assert_eq!(out.displaced.unwrap().seq, 1);
        assert!(q.check_invariants());
    }

    #[test]
    fn iter_is_generation_ordered() {
        let mut q = UpdateQueue::new(10, false);
        q.insert(upd(0, 0, 3.0));
        q.insert(upd(1, 1, 1.0));
        q.insert(upd(2, 2, 2.0));
        let gens: Vec<f64> = q.iter().map(|u| u.generation_ts.as_secs()).collect();
        assert_eq!(gens, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut q = UpdateQueue::new(1000, false);
        // Churn far more updates than ever coexist: the arena must stay at
        // the high-water mark instead of growing per insert.
        for i in 0..10_000u64 {
            q.insert(upd(i, (i % 16) as u32, i as f64 * 0.01));
            if i >= 8 {
                q.pop_oldest();
            }
        }
        assert!(q.check_invariants());
        assert!(q.slab_slots() <= 16, "arena grew to {}", q.slab_slots());
    }
}
