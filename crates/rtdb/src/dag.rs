//! Derived-view DAGs maintained by incremental delta propagation: views
//! over views, beyond the flat [`crate::triggers`] rules.
//!
//! A [`ViewDag`] is a validated-acyclic graph of derived nodes. Rank-0
//! nodes aggregate base view objects; higher ranks aggregate lower-rank
//! nodes. Installing an update into a base object no longer fires a
//! whole-refresh rule — it enqueues a *typed delta* for every dependent
//! node ([`DeltaKind::Base`]), and applying a delta recomputes that one
//! node from its current inputs and cascades further deltas
//! ([`DeltaKind::Cascade`]) only when the value actually changed.
//!
//! Invariants the scheduler and the metrics rely on:
//!
//! * **Conservation** — every enqueue ends in exactly one bucket:
//!   `enqueued = applied + coalesced + shed + pending`.
//! * **Quiescent equivalence** — applying pending deltas in ascending
//!   node-id order (ids are topologically sorted) until none remain leaves
//!   every node bit-identical to a full recompute, because an apply is an
//!   exact recompute from current inputs and a value change always
//!   cascades.
//! * **Transitive staleness** — a node is stale iff it has an unapplied
//!   delta or any of its derived inputs is stale; the flag is maintained
//!   incrementally by counter cascades, never by graph walks on the hot
//!   path.

use serde::{Deserialize, Serialize};
use strip_sim::time::SimTime;

use crate::object::{Importance, ViewObjectId};
use crate::store::Store;

/// Shape and cost knobs of a generated derived-view DAG (threaded through
/// `SimConfig` so DAG shape is a first-class sweep axis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagSpec {
    /// Number of derived ranks (≥ 1).
    pub depth: u32,
    /// Nodes per rank.
    pub width: u32,
    /// Inputs per node (base objects at rank 0, lower-rank nodes above).
    pub fanout: u32,
    /// Instructions one delta application costs *per input edge* of the
    /// recomputed node.
    pub edge_cost_instr: f64,
    /// Bound on distinct nodes with pending deltas; inserts beyond it are
    /// shed (merges into an already-pending node are always accepted).
    pub max_pending: u32,
    /// Mean number of derived-node reads per transaction (Poisson).
    pub derived_reads_mean: f64,
}

impl Default for DagSpec {
    #[inline]
    fn default() -> Self {
        DagSpec {
            depth: 3,
            width: 50,
            fanout: 3,
            edge_cost_instr: 2_000.0,
            max_pending: 10_000,
            derived_reads_mean: 2.0,
        }
    }
}

/// One input edge of a derived node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagInput {
    /// A base view object (read from the store).
    Base(ViewObjectId),
    /// A lower-id derived node (read from the DAG state).
    Derived(u32),
}

/// One derived node: its value is the mean of its inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNode {
    /// Node id; ids are a topological order (every derived input has a
    /// strictly smaller id).
    pub id: u32,
    /// Input edges.
    pub inputs: Vec<DagInput>,
}

impl DagNode {
    /// The node's distinct base objects, in input order.
    #[inline]
    fn distinct_bases(&self) -> impl Iterator<Item = ViewObjectId> + '_ {
        let inputs = &self.inputs;
        (0..inputs.len()).filter_map(move |k| match inputs[k] {
            DagInput::Base(obj) if !inputs[..k].contains(&inputs[k]) => Some(obj),
            _ => None,
        })
    }
}

/// Why a node list does not form a valid DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// `nodes[i].id != i`.
    BadId(u32),
    /// A derived input references a node with id ≥ the node's own — a self
    /// edge, a forward edge, or a cycle.
    ForwardEdge {
        /// The offending node.
        node: u32,
        /// The input it references.
        input: u32,
    },
}

impl std::fmt::Display for DagError {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::BadId(i) => write!(f, "node at index {i} has a mismatched id"),
            DagError::ForwardEdge { node, input } => write!(
                f,
                "node {node} reads node {input}: derived inputs must have a \
                 strictly smaller id (acyclicity)"
            ),
        }
    }
}

/// A validated-acyclic, topologically ranked derived-view graph with both
/// forward (inputs) and reverse (dependents) adjacency.
#[derive(Debug, Clone)]
pub struct ViewDag {
    nodes: Vec<DagNode>,
    ranks: Vec<u32>,
    /// Base object → nodes reading it, as compressed rows: the nodes of
    /// the object at [`ViewObjectId::slot`] `s` are
    /// `base_deps[base_offsets[s]..base_offsets[s + 1]]`, ascending.
    base_offsets: Vec<u32>,
    base_deps: Vec<u32>,
    /// derived node → higher nodes reading it.
    dependents: Vec<Vec<u32>>,
}

impl ViewDag {
    /// Validates `nodes` (ids in order, no forward/self edges — which is
    /// exactly acyclicity for an id-ordered list) and builds the rank and
    /// reverse-adjacency indexes.
    ///
    /// # Errors
    ///
    /// Returns [`DagError`] on a mismatched id or an edge that would make
    /// the graph cyclic.
    #[inline]
    pub fn new(nodes: Vec<DagNode>) -> Result<Self, DagError> {
        let mut ranks = vec![0u32; nodes.len()];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        // Row lengths first: object slot `s` counts into `base_offsets[s + 1]`.
        let mut base_offsets = vec![0u32];
        for (i, node) in nodes.iter().enumerate() {
            if node.id != i as u32 {
                return Err(DagError::BadId(i as u32));
            }
            let mut rank = 0;
            for input in &node.inputs {
                if let DagInput::Derived(j) = *input {
                    if j >= node.id {
                        return Err(DagError::ForwardEdge {
                            node: node.id,
                            input: j,
                        });
                    }
                    rank = rank.max(ranks[j as usize] + 1);
                    dependents[j as usize].push(node.id);
                }
            }
            ranks[i] = rank;
            for obj in node.distinct_bases() {
                let end = obj.slot() + 2;
                if base_offsets.len() < end {
                    base_offsets.resize(end, 0);
                }
                base_offsets[end - 1] += 1;
            }
        }
        for deps in &mut dependents {
            deps.dedup();
        }
        for s in 1..base_offsets.len() {
            base_offsets[s] += base_offsets[s - 1];
        }
        // Then the rows, filled in node order so each one is ascending.
        let mut cursor = base_offsets.clone();
        let mut base_deps = vec![0u32; base_offsets[base_offsets.len() - 1] as usize];
        for node in &nodes {
            for obj in node.distinct_bases() {
                base_deps[cursor[obj.slot()] as usize] = node.id;
                cursor[obj.slot()] += 1;
            }
        }
        Ok(ViewDag {
            nodes,
            ranks,
            base_offsets,
            base_deps,
            dependents,
        })
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in id (topological) order.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Topological rank of `node` (0 = reads only base objects).
    #[inline]
    #[must_use]
    pub fn rank(&self, node: u32) -> u32 {
        self.ranks[node as usize]
    }

    /// Input edges of `node`.
    #[inline]
    #[must_use]
    pub fn inputs(&self, node: u32) -> &[DagInput] {
        &self.nodes[node as usize].inputs
    }

    /// Derived nodes that read base object `object`.
    #[inline]
    #[must_use]
    pub fn base_dependents(&self, object: ViewObjectId) -> &[u32] {
        match self.base_offsets.get(object.slot()..object.slot() + 2) {
            Some(&[from, to]) => &self.base_deps[from as usize..to as usize],
            _ => &[],
        }
    }

    /// Derived nodes that read derived node `node`.
    #[inline]
    #[must_use]
    pub fn dependents(&self, node: u32) -> &[u32] {
        &self.dependents[node as usize]
    }
}

/// Deterministically generates a `spec`-shaped DAG over an
/// `n_low`/`n_high` base object space: `depth × width` nodes, rank-0
/// inputs drawn uniformly from the base space (same idiom as
/// [`crate::triggers::generate_rules`]), higher ranks drawing their first
/// input from the immediately lower rank (so declared depth is realised)
/// and the rest from any lower rank.
#[inline]
#[must_use]
pub fn generate_dag(
    spec: &DagSpec,
    n_low: u32,
    n_high: u32,
    rng: &mut strip_sim::rng::Xoshiro256pp,
) -> ViewDag {
    let total = u64::from(n_low) + u64::from(n_high);
    let width = spec.width.max(1);
    let mut nodes = Vec::with_capacity((spec.depth * width) as usize);
    for rank in 0..spec.depth.max(1) {
        for w in 0..width {
            let id = rank * width + w;
            let inputs = (0..spec.fanout.max(1))
                .map(|edge| {
                    if rank == 0 {
                        let k = rng.next_below(total.max(1));
                        if k < u64::from(n_low) {
                            DagInput::Base(ViewObjectId::new(Importance::Low, k as u32))
                        } else {
                            DagInput::Base(ViewObjectId::new(
                                Importance::High,
                                (k - u64::from(n_low)) as u32,
                            ))
                        }
                    } else if edge == 0 {
                        // Anchor edge into the previous rank.
                        DagInput::Derived(
                            (rank - 1) * width + rng.next_below(u64::from(width)) as u32,
                        )
                    } else {
                        DagInput::Derived(rng.next_below(u64::from(rank * width)) as u32)
                    }
                })
                .collect();
            nodes.push(DagNode { id, inputs });
        }
    }
    ViewDag::new(nodes).expect("generated DAGs are rank-structured")
}

/// What kind of change a pending delta represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A base-object install changed one of the node's base inputs.
    Base,
    /// A lower node's applied delta changed one of its derived inputs.
    Cascade,
}

/// The coalesced pending delta of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingDelta {
    /// Kind of the first enqueued delta (later merges keep it).
    pub kind: DeltaKind,
    /// How many deltas were merged into this entry (≥ 1).
    pub merged: u64,
    /// Sum of the input-change magnitudes merged in (diagnostic only —
    /// application recomputes exactly, it never adds magnitudes).
    pub magnitude: f64,
    /// When the first delta was enqueued (propagation lag anchor).
    pub first_enqueued: SimTime,
}

/// Terminal bucket of one enqueue event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// A new pending entry was created.
    Queued,
    /// Merged into an already-pending entry for the node.
    Coalesced,
    /// Rejected: `max_pending` distinct nodes already pending.
    Shed,
}

/// Monotonic propagation counters (the conservation law's buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagCounters {
    /// Delta enqueue events (base + cascade).
    pub enqueued: u64,
    /// Pending entries applied.
    pub applied: u64,
    /// Enqueues merged into an existing entry.
    pub coalesced: u64,
    /// Enqueues rejected by the pending bound.
    pub shed: u64,
}

/// Result of applying one pending delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyResult {
    /// The recomputed value.
    pub value: f64,
    /// Whether the value changed bit-wise (and therefore cascaded).
    pub changed: bool,
    /// Seconds between the entry's first enqueue and this application.
    pub lag: f64,
    /// Kind of the applied entry.
    pub kind: DeltaKind,
    /// How many enqueues the entry had coalesced.
    pub merged: u64,
}

/// Mutable maintenance state over a [`ViewDag`]: node values, the
/// coalesced pending deltas, and incrementally maintained transitive
/// staleness — all dense per-node tables.
#[derive(Debug, Clone)]
pub struct DagState {
    values: Vec<f64>,
    /// Per node: its coalesced pending delta, if any.
    pending: Vec<Option<PendingDelta>>,
    /// Bit `n % 64` of word `n / 64` is set iff node `n` has a pending
    /// delta, so the lowest set bit is the next node of the rank-order
    /// drain.
    pending_bits: Vec<u64>,
    pending_len: usize,
    /// Per node: how many of its *derived* inputs are currently stale.
    stale_inputs: Vec<u32>,
    stale_now: u32,
    /// The flip cascades' work stack, kept between calls.
    stack: Vec<u32>,
    max_pending: usize,
    /// Conservation counters.
    pub stats: DagCounters,
}

impl DagState {
    /// Fresh state: every node's value is a full recompute against
    /// `store`, nothing pending, nothing stale.
    #[inline]
    #[must_use]
    pub fn new(dag: &ViewDag, store: &Store, max_pending: u32) -> Self {
        DagState {
            values: full_recompute(dag, store),
            pending: vec![None; dag.len()],
            pending_bits: vec![0; dag.len().div_ceil(64)],
            pending_len: 0,
            stale_inputs: vec![0; dag.len()],
            stale_now: 0,
            stack: Vec::new(),
            max_pending: max_pending.max(1) as usize,
            stats: DagCounters::default(),
        }
    }

    /// Current value of `node`.
    #[inline]
    #[must_use]
    pub fn value(&self, node: u32) -> f64 {
        self.values[node as usize]
    }

    /// All current values in node order.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Transitive staleness: the node has an unapplied delta or a stale
    /// derived input.
    #[inline]
    #[must_use]
    pub fn is_stale(&self, node: u32) -> bool {
        self.pending[node as usize].is_some() || self.stale_inputs[node as usize] > 0
    }

    /// How many nodes are stale right now.
    #[inline]
    #[must_use]
    pub fn stale_count(&self) -> u32 {
        self.stale_now
    }

    /// Number of nodes with a pending delta.
    #[inline]
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending_len
    }

    /// Lowest node id with a pending delta — the next node the rank-order
    /// drain applies (ids are topological, so the minimum key is never
    /// waiting on another pending node below it).
    #[inline]
    #[must_use]
    pub fn next_pending(&self) -> Option<u32> {
        let (word, bits) = self
            .pending_bits
            .iter()
            .enumerate()
            .find(|(_, bits)| **bits != 0)?;
        Some(word as u32 * 64 + bits.trailing_zeros())
    }

    /// The pending entry of `node`, if any.
    #[inline]
    #[must_use]
    pub fn pending(&self, node: u32) -> Option<&PendingDelta> {
        self.pending.get(node as usize)?.as_ref()
    }

    /// Removes and returns the pending entry of `node`, if any.
    #[inline]
    fn take_pending(&mut self, node: u32) -> Option<PendingDelta> {
        let entry = self.pending.get_mut(node as usize)?.take()?;
        self.pending_bits[node as usize / 64] &= !(1 << (node % 64));
        self.pending_len -= 1;
        Some(entry)
    }

    #[inline]
    fn flip_on(&mut self, dag: &ViewDag, node: u32) {
        // `node` just became stale: bump every dependent's stale-input
        // count, recursing into dependents that flip in turn.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(node);
        self.stale_now += 1;
        while let Some(n) = stack.pop() {
            for &d in dag.dependents(n) {
                let was = self.is_stale(d);
                self.stale_inputs[d as usize] += 1;
                if !was {
                    self.stale_now += 1;
                    stack.push(d);
                }
            }
        }
        self.stack = stack;
    }

    #[inline]
    fn flip_off(&mut self, dag: &ViewDag, node: u32) {
        // `node` just became fresh: the exact inverse cascade.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(node);
        self.stale_now -= 1;
        while let Some(n) = stack.pop() {
            for &d in dag.dependents(n) {
                self.stale_inputs[d as usize] -= 1;
                if !self.is_stale(d) {
                    self.stale_now -= 1;
                    stack.push(d);
                }
            }
        }
        self.stack = stack;
    }

    #[inline]
    fn enqueue(
        &mut self,
        dag: &ViewDag,
        node: u32,
        kind: DeltaKind,
        magnitude: f64,
        now: SimTime,
    ) -> EnqueueOutcome {
        self.stats.enqueued += 1;
        if let Some(p) = &mut self.pending[node as usize] {
            p.merged += 1;
            p.magnitude += magnitude;
            self.stats.coalesced += 1;
            return EnqueueOutcome::Coalesced;
        }
        if self.pending_len >= self.max_pending {
            self.stats.shed += 1;
            return EnqueueOutcome::Shed;
        }
        let was = self.is_stale(node);
        self.pending[node as usize] = Some(PendingDelta {
            kind,
            merged: 1,
            magnitude,
            first_enqueued: now,
        });
        self.pending_bits[node as usize / 64] |= 1 << (node % 64);
        self.pending_len += 1;
        if !was {
            self.flip_on(dag, node);
        }
        EnqueueOutcome::Queued
    }

    /// A base-object install: enqueues one [`DeltaKind::Base`] delta per
    /// dependent node. Returns the number of enqueue events.
    #[inline]
    pub fn on_base_install(
        &mut self,
        dag: &ViewDag,
        object: ViewObjectId,
        magnitude: f64,
        now: SimTime,
    ) -> usize {
        // The dependent list borrows the dag, not self.
        let deps = dag.base_dependents(object);
        for &d in deps {
            self.enqueue(dag, d, DeltaKind::Base, magnitude, now);
        }
        deps.len()
    }

    /// Applies the pending delta of `node`: exact recompute from current
    /// inputs, cascading to dependents when the value changed. Returns
    /// `None` when the node has nothing pending.
    #[inline]
    pub fn apply(
        &mut self,
        dag: &ViewDag,
        store: &Store,
        node: u32,
        now: SimTime,
    ) -> Option<ApplyResult> {
        let entry = self.take_pending(node)?;
        self.stats.applied += 1;
        if self.stale_inputs[node as usize] == 0 {
            self.flip_off(dag, node);
        }
        let old = self.values[node as usize];
        let new = recompute_node(dag, store, &self.values, node);
        self.values[node as usize] = new;
        let changed = new.to_bits() != old.to_bits();
        if changed {
            for &d in dag.dependents(node) {
                self.enqueue(dag, d, DeltaKind::Cascade, new - old, now);
            }
        }
        Some(ApplyResult {
            value: new,
            changed,
            lag: now.since(entry.first_enqueued),
            kind: entry.kind,
            merged: entry.merged,
        })
    }

    /// The pending ancestor closure of `node`, ascending (= topological)
    /// order, including `node` itself: exactly the applications a
    /// recursive on-demand refresh performs before answering a read.
    #[inline]
    #[must_use]
    pub fn pending_closure(&self, dag: &ViewDag, node: u32) -> Vec<u32> {
        self.closure(dag, node, |n| self.pending[n as usize].is_some())
    }

    /// The *stale* ancestor closure of `node`, ascending (= topological)
    /// order, including `node` itself when stale: every node a recursive
    /// on-demand refresh may recompute. A superset of
    /// [`DagState::pending_closure`] — transitively stale ancestors with
    /// nothing pending yet can receive an in-cone cascade mid-refresh, so
    /// a single ascending pass of [`DagState::apply`] over this set
    /// reaches quiescence of the cone (cascades that leave the cone stay
    /// pending for background propagation).
    #[inline]
    #[must_use]
    pub fn stale_closure(&self, dag: &ViewDag, node: u32) -> Vec<u32> {
        self.closure(dag, node, |n| self.is_stale(n))
    }

    /// The nodes satisfying `keep` among `node` and its ancestors reached
    /// through stale derived inputs (fresh ancestors have nothing pending
    /// anywhere above them), ascending.
    #[inline]
    fn closure(&self, dag: &ViewDag, node: u32, keep: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut seen = vec![false; dag.len()];
        let mut stack = vec![node];
        let mut found = Vec::new();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n as usize], true) {
                continue;
            }
            if keep(n) {
                found.push(n);
            }
            for input in dag.inputs(n) {
                if let DagInput::Derived(j) = *input {
                    if self.is_stale(j) {
                        stack.push(j);
                    }
                }
            }
        }
        found.sort_unstable();
        found
    }
}

#[inline]
fn recompute_node(dag: &ViewDag, store: &Store, values: &[f64], node: u32) -> f64 {
    let inputs = dag.inputs(node);
    if inputs.is_empty() {
        return 0.0;
    }
    let sum: f64 = inputs
        .iter()
        .map(|input| match *input {
            DagInput::Base(obj) => store.view(obj).payload,
            DagInput::Derived(j) => values[j as usize],
        })
        .sum();
    sum / inputs.len() as f64
}

/// Full recompute of every node in topological order — the oracle the
/// incremental path must match at quiescent points, and the recovery
/// path's way to rebuild derived values from a recovered base store.
#[inline]
#[must_use]
pub fn full_recompute(dag: &ViewDag, store: &Store) -> Vec<f64> {
    let mut values = vec![0.0; dag.len()];
    for node in 0..dag.len() as u32 {
        values[node as usize] = recompute_node(dag, store, &values, node);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;
    use strip_sim::rng::Xoshiro256pp;

    fn obj(i: u32) -> ViewObjectId {
        ViewObjectId::new(Importance::Low, i)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn install(store: &mut Store, i: u32, v: f64, at: f64) {
        let u = Update {
            seq: u64::from(i),
            object: obj(i),
            generation_ts: t(at),
            arrival_ts: t(at),
            payload: v,
            attr_mask: Update::COMPLETE,
        };
        store.install(&u);
    }

    /// diamond: 0,1 read base; 2 reads 0 and 1; 3 reads 2.
    fn diamond() -> ViewDag {
        ViewDag::new(vec![
            DagNode {
                id: 0,
                inputs: vec![DagInput::Base(obj(0)), DagInput::Base(obj(1))],
            },
            DagNode {
                id: 1,
                inputs: vec![DagInput::Base(obj(1)), DagInput::Base(obj(2))],
            },
            DagNode {
                id: 2,
                inputs: vec![DagInput::Derived(0), DagInput::Derived(1)],
            },
            DagNode {
                id: 3,
                inputs: vec![DagInput::Derived(2)],
            },
        ])
        .unwrap()
    }

    #[test]
    fn rejects_forward_and_self_edges() {
        let err = ViewDag::new(vec![DagNode {
            id: 0,
            inputs: vec![DagInput::Derived(0)],
        }])
        .unwrap_err();
        assert_eq!(err, DagError::ForwardEdge { node: 0, input: 0 });
        let err = ViewDag::new(vec![
            DagNode {
                id: 0,
                inputs: vec![DagInput::Derived(1)],
            },
            DagNode {
                id: 1,
                inputs: vec![],
            },
        ])
        .unwrap_err();
        assert_eq!(err, DagError::ForwardEdge { node: 0, input: 1 });
        assert!(ViewDag::new(vec![DagNode {
            id: 1,
            inputs: vec![]
        }])
        .is_err());
    }

    #[test]
    fn ranks_and_adjacency() {
        let dag = diamond();
        assert_eq!(
            (dag.rank(0), dag.rank(1), dag.rank(2), dag.rank(3)),
            (0, 0, 1, 2)
        );
        assert_eq!(dag.base_dependents(obj(1)), &[0, 1]);
        assert_eq!(dag.dependents(0), &[2]);
        assert_eq!(dag.dependents(2), &[3]);
        assert!(dag.base_dependents(obj(9)).is_empty());
    }

    #[test]
    fn base_install_cascades_and_quiescent_matches_full_recompute() {
        let dag = diamond();
        let mut store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        install(&mut store, 0, 10.0, 1.0);
        state.on_base_install(&dag, obj(0), 10.0, t(1.0));
        install(&mut store, 1, 4.0, 1.5);
        state.on_base_install(&dag, obj(1), 4.0, t(1.5));
        assert!(state.is_stale(0) && state.is_stale(1));
        assert!(state.is_stale(2) && state.is_stale(3), "transitive");
        // Drain in rank (id) order.
        while let Some(n) = state.next_pending() {
            state.apply(&dag, &store, n, t(2.0)).unwrap();
        }
        assert_eq!(state.stale_count(), 0);
        for (n, v) in full_recompute(&dag, &store).iter().enumerate() {
            assert_eq!(state.value(n as u32).to_bits(), v.to_bits(), "node {n}");
        }
        let s = state.stats;
        assert_eq!(
            s.enqueued,
            s.applied + s.coalesced + s.shed + state.pending_len() as u64
        );
    }

    #[test]
    fn coalescing_merges_per_node() {
        let dag = diamond();
        let store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        state.on_base_install(&dag, obj(1), 1.0, t(1.0)); // nodes 0 and 1
        state.on_base_install(&dag, obj(1), 2.0, t(2.0)); // both coalesce
        assert_eq!(state.stats.enqueued, 4);
        assert_eq!(state.stats.coalesced, 2);
        let p = state.pending(0).unwrap();
        assert_eq!(p.merged, 2);
        assert_eq!(p.first_enqueued, t(1.0));
        assert_eq!(p.kind, DeltaKind::Base);
    }

    #[test]
    fn shed_bound_rejects_new_nodes_but_not_merges() {
        let dag = diamond();
        let store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 1);
        // obj(0) → node 0 queued; obj(2) → node 1 shed (bound 1).
        state.on_base_install(&dag, obj(0), 1.0, t(1.0));
        state.on_base_install(&dag, obj(2), 1.0, t(1.1));
        assert_eq!(state.stats.shed, 1);
        // Another obj(0) install still merges into node 0.
        state.on_base_install(&dag, obj(0), 1.0, t(1.2));
        assert_eq!(state.stats.coalesced, 1);
        let s = state.stats;
        assert_eq!(
            s.enqueued,
            s.applied + s.coalesced + s.shed + state.pending_len() as u64
        );
    }

    #[test]
    fn transitive_staleness_clears_bottom_up_only() {
        let dag = diamond();
        let mut store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        install(&mut store, 0, 8.0, 1.0);
        state.on_base_install(&dag, obj(0), 8.0, t(1.0));
        assert_eq!(state.stale_count(), 3); // 0, 2, 3 (node 1 untouched)
        assert!(!state.is_stale(1));
        let r = state.apply(&dag, &store, 0, t(2.0)).unwrap();
        assert!(r.changed);
        // Node 0 fresh; 2 owns a cascade now; 3 transitively stale.
        assert!(!state.is_stale(0));
        assert!(state.is_stale(2) && state.is_stale(3));
        state.apply(&dag, &store, 2, t(3.0)).unwrap();
        assert!(state.is_stale(3) && !state.is_stale(2));
        state.apply(&dag, &store, 3, t(4.0)).unwrap();
        assert_eq!(state.stale_count(), 0);
    }

    #[test]
    fn unchanged_recompute_does_not_cascade() {
        let dag = diamond();
        let store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        // Install event with no store change (payload already 0): the
        // delta applies, the value is bit-identical, nothing cascades.
        state.on_base_install(&dag, obj(0), 0.0, t(1.0));
        let r = state.apply(&dag, &store, 0, t(2.0)).unwrap();
        assert!(!r.changed);
        assert_eq!(state.pending_len(), 0);
        assert_eq!(state.stale_count(), 0);
    }

    #[test]
    fn pending_closure_is_the_stale_ancestor_chain() {
        let dag = diamond();
        let mut store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        install(&mut store, 0, 8.0, 1.0);
        state.on_base_install(&dag, obj(0), 8.0, t(1.0));
        assert_eq!(state.pending_closure(&dag, 3), vec![0]);
        assert_eq!(state.pending_closure(&dag, 0), vec![0]);
        assert!(state.pending_closure(&dag, 1).is_empty());
        // Refreshing node 3 on demand: apply the closure repeatedly until
        // it drains (cascades re-populate it).
        loop {
            let closure = state.pending_closure(&dag, 3);
            if closure.is_empty() {
                break;
            }
            for n in closure {
                state.apply(&dag, &store, n, t(2.0));
            }
        }
        assert!(!state.is_stale(3));
        let oracle = full_recompute(&dag, &store);
        assert_eq!(state.value(3).to_bits(), oracle[3].to_bits());
        // Node 1's subtree was never touched — OD refreshes the closure,
        // not the world.
        assert!(!state.is_stale(1));
    }

    #[test]
    fn one_ascending_pass_over_the_stale_closure_quiesces_the_cone() {
        let dag = diamond();
        let mut store = Store::new(3, 0, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, 100);
        install(&mut store, 0, 8.0, 1.0);
        state.on_base_install(&dag, obj(0), 8.0, t(1.0));
        // Node 0 is pending; 2 and 3 are only transitively stale, but the
        // refresh must still visit them for the in-cone cascades.
        assert_eq!(state.stale_closure(&dag, 3), vec![0, 2, 3]);
        for n in state.stale_closure(&dag, 3) {
            state.apply(&dag, &store, n, t(2.0));
        }
        assert!(!state.is_stale(3));
        assert_eq!(state.pending_len(), 0);
        let oracle = full_recompute(&dag, &store);
        assert_eq!(state.value(3).to_bits(), oracle[3].to_bits());
    }

    #[test]
    fn generated_dags_have_declared_shape() {
        let spec = DagSpec {
            depth: 4,
            width: 6,
            fanout: 3,
            ..DagSpec::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let dag = generate_dag(&spec, 20, 20, &mut rng);
        assert_eq!(dag.len(), 24);
        for node in dag.nodes() {
            assert_eq!(node.inputs.len(), 3);
        }
        // Anchor edges realise the declared depth.
        assert_eq!(dag.rank(23 - (23 % 6)), 3);
        let max_rank = (0..24).map(|n| dag.rank(n)).max().unwrap();
        assert_eq!(max_rank, 3);
        // Determinism: same seed, same graph.
        let mut rng2 = Xoshiro256pp::seed_from_u64(9);
        let dag2 = generate_dag(&spec, 20, 20, &mut rng2);
        assert_eq!(dag.nodes(), dag2.nodes());
    }
}
