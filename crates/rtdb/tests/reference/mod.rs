//! The seed `BTreeMap`-based update queue, kept verbatim as the oracle.
//!
//! [`ReferenceUpdateQueue`] is the repository's original implementation of
//! the generation-ordered update queue: a `BTreeMap<QueueKey, Update>` for
//! global order plus a `HashMap<ViewObjectId, BTreeSet<QueueKey>>` per-object
//! index (O(log n) everywhere, one `Vec` allocation per dedup sweep). The
//! slab-backed `strip_db::update_queue::UpdateQueue` replaced it; it shares
//! no code with that structure, which is what makes it the oracle
//! `prop_update_queue.rs` compares against.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use strip_sim::time::SimTime;

use strip_db::object::ViewObjectId;
use strip_db::update::Update;
use strip_db::update_queue::InsertOutcome;

/// Key ordering queued updates by generation time (sequence number breaks
/// ties deterministically).
type QueueKey = (SimTime, u64);

/// The seed generation-ordered bounded buffer (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReferenceUpdateQueue {
    by_generation: BTreeMap<QueueKey, Update>,
    per_object: HashMap<ViewObjectId, BTreeSet<QueueKey>>,
    capacity: usize,
    dedup: bool,
    overflow_dropped: u64,
    expired_dropped: u64,
    dedup_dropped: u64,
}

impl ReferenceUpdateQueue {
    /// Creates a queue bounded at `capacity` updates; `dedup` enables the
    /// hash-index extension (at most one queued update per object).
    #[must_use]
    pub fn new(capacity: usize, dedup: bool) -> Self {
        ReferenceUpdateQueue {
            by_generation: BTreeMap::new(),
            per_object: HashMap::new(),
            capacity,
            dedup,
            overflow_dropped: 0,
            expired_dropped: 0,
            dedup_dropped: 0,
        }
    }

    fn key(u: &Update) -> QueueKey {
        (u.generation_ts, u.seq)
    }

    fn unlink(&mut self, key: QueueKey) -> Option<Update> {
        let update = self.by_generation.remove(&key)?;
        if let Some(set) = self.per_object.get_mut(&update.object) {
            set.remove(&key);
            if set.is_empty() {
                self.per_object.remove(&update.object);
            }
        }
        Some(update)
    }

    fn link(&mut self, update: Update) {
        let key = Self::key(&update);
        self.per_object
            .entry(update.object)
            .or_default()
            .insert(key);
        let prev = self.by_generation.insert(key, update);
        debug_assert!(prev.is_none(), "duplicate queue key");
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
            // A newer (or equal) update for the same object is already
            // queued: the arrival is worthless — drop it instead.
            let superseded = self
                .per_object
                .get(&update.object)
                .and_then(|set| set.iter().next_back())
                .is_some_and(|&newest| newest >= new_key);
            if superseded {
                outcome.deduped = 1;
                self.dedup_dropped += 1;
                return outcome;
            }
            // Otherwise remove the queued updates this one supersedes.
            let older: Vec<QueueKey> = self
                .per_object
                .get(&update.object)
                .map(|set| set.range(..new_key).copied().collect())
                .unwrap_or_default();
            for key in older {
                self.unlink(key);
                outcome.deduped += 1;
                self.dedup_dropped += 1;
            }
        }
        self.link(update);
        if self.by_generation.len() > self.capacity {
            // Discard the oldest update (§4.2) — possibly the new arrival.
            let oldest_key = *self
                .by_generation
                .keys()
                .next()
                .expect("non-empty queue has an oldest entry");
            outcome.displaced = self.unlink(oldest_key);
            self.overflow_dropped += 1;
        }
        outcome
    }

    /// Removes the update with the oldest generation (FIFO service).
    pub fn pop_oldest(&mut self) -> Option<Update> {
        let key = *self.by_generation.keys().next()?;
        self.unlink(key)
    }

    /// Removes the update with the newest generation (LIFO service).
    pub fn pop_newest(&mut self) -> Option<Update> {
        let key = *self.by_generation.keys().next_back()?;
        self.unlink(key)
    }

    /// Discards every queued update whose value age exceeds `alpha` at
    /// `now`; returns how many were discarded.
    pub fn discard_expired(&mut self, now: SimTime, alpha: f64) -> usize {
        let mut n = 0;
        while let Some((&(gen_ts, seq), _)) = self.by_generation.iter().next() {
            if now.since(gen_ts) <= alpha {
                break;
            }
            self.unlink((gen_ts, seq));
            n += 1;
        }
        self.expired_dropped += n as u64;
        n
    }

    /// The newest queued update for `object`, if any.
    #[must_use]
    pub fn newest_for(&self, object: ViewObjectId) -> Option<&Update> {
        let key = *self.per_object.get(&object)?.iter().next_back()?;
        self.by_generation.get(&key)
    }

    /// Removes and returns the newest queued update for `object`.
    pub fn take_newest_for(&mut self, object: ViewObjectId) -> Option<Update> {
        let key = *self.per_object.get(&object)?.iter().next_back()?;
        self.unlink(key)
    }

    /// True if any update for `object` is queued.
    #[must_use]
    pub fn has_pending_for(&self, object: ViewObjectId) -> bool {
        self.per_object.contains_key(&object)
    }

    /// Removes the newest update for the object with the highest `score`,
    /// breaking score ties by the smaller object id.
    pub fn pop_hottest<F>(&mut self, score: F) -> Option<Update>
    where
        F: Fn(ViewObjectId) -> u64,
    {
        let hottest = self
            .per_object
            .keys()
            .copied()
            .max_by_key(|&id| (score(id), std::cmp::Reverse(id)))?;
        self.take_newest_for(hottest)
    }

    /// Number of queued updates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_generation.len()
    }

    /// True when no updates are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_generation.is_empty()
    }

    /// The configured bound.
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
        self.by_generation.values()
    }
}
