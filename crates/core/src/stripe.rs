//! Deterministic object-to-stripe routing (scale-out extension).
//!
//! The sharded runtime partitions the view-object space into
//! [`SimConfig::stripes`](crate::config::SimConfig::stripes) *stripes*
//! keyed by a hash of the object id. Every layer that routes work — the
//! striped simulator, the live connection readers, per-stripe WAL
//! recovery — goes through this one [`StripeMap`] so simulation and live
//! runtime make bit-identical routing decisions.
//!
//! The hash is SplitMix64 over the packed `(class, index)` id: stateless,
//! seed-free, and stable across runs and processes. Because the stripe of
//! an object is a hash (not `index % stripes`), local indices within a
//! stripe are assigned by *rank* — object `k` of class `c` in stripe `s`
//! is the `k`-th global index of class `c` whose hash lands on `s` — and
//! the map precomputes both directions of that translation.

use strip_db::object::{Importance, ViewObjectId};

/// SplitMix64 finalizer: a stateless 64-bit mix with full avalanche.
/// Public so per-stripe artifacts (WAL fingerprints, seeds) can derive
/// stripe-distinct values from a base the same way the router does.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Packs an object id for hashing: class in the high bit space, index low.
fn packed(class: Importance, index: u32) -> u64 {
    ((class.index() as u64) << 32) | u64::from(index)
}

/// Stripe of an object without building a map — the routing primitive
/// shared by the simulator's partitioner and the live connection readers.
/// `stripes == 1` short-circuits so the single-stripe hot path pays
/// nothing.
#[inline]
#[must_use]
pub fn stripe_of(class: Importance, index: u32, stripes: u32) -> u32 {
    if stripes <= 1 {
        return 0;
    }
    (splitmix64(packed(class, index)) % u64::from(stripes)) as u32
}

/// Precomputed two-way translation between global object ids and
/// per-stripe local ids for one `(stripes, n_low, n_high)` shape.
#[derive(Debug, Clone)]
pub struct StripeMap {
    stripes: u32,
    /// Global index → (stripe, local index), per class.
    fwd: [Vec<(u32, u32)>; 2],
    /// stripe → per class → local index → global index.
    back: Vec<[Vec<u32>; 2]>,
}

impl StripeMap {
    /// Builds the map for `stripes` stripes over `n_low + n_high` objects.
    #[must_use]
    pub fn new(stripes: u32, n_low: u32, n_high: u32) -> Self {
        let stripes = stripes.max(1);
        let mut fwd = [
            Vec::with_capacity(n_low as usize),
            Vec::with_capacity(n_high as usize),
        ];
        let mut back: Vec<[Vec<u32>; 2]> = (0..stripes).map(|_| [Vec::new(), Vec::new()]).collect();
        for (ci, n) in [(0usize, n_low), (1usize, n_high)] {
            let class = Importance::ALL[ci];
            for index in 0..n {
                let s = stripe_of(class, index, stripes);
                let local = back[s as usize][ci].len() as u32;
                fwd[ci].push((s, local));
                back[s as usize][ci].push(index);
            }
        }
        StripeMap { stripes, fwd, back }
    }

    /// Builds the map for a config's shape.
    #[must_use]
    pub fn from_config(cfg: &crate::config::SimConfig) -> Self {
        StripeMap::new(cfg.stripes, cfg.n_low, cfg.n_high)
    }

    /// Number of stripes.
    #[must_use]
    pub fn stripes(&self) -> u32 {
        self.stripes
    }

    /// Stripe owning a global object id.
    #[must_use]
    pub fn stripe_of(&self, id: ViewObjectId) -> u32 {
        self.fwd[id.class.index()][id.index as usize].0
    }

    /// Translates a global id to `(stripe, local id)`.
    #[must_use]
    pub fn to_local(&self, id: ViewObjectId) -> (u32, ViewObjectId) {
        let (s, local) = self.fwd[id.class.index()][id.index as usize];
        (s, ViewObjectId::new(id.class, local))
    }

    /// Translates a stripe-local id back to the global id.
    #[must_use]
    pub fn to_global(&self, stripe: u32, local: ViewObjectId) -> ViewObjectId {
        ViewObjectId::new(
            local.class,
            self.back[stripe as usize][local.class.index()][local.index as usize],
        )
    }

    /// Local `(n_low, n_high)` shape of one stripe.
    #[must_use]
    pub fn shape(&self, stripe: u32) -> (u32, u32) {
        let b = &self.back[stripe as usize];
        (b[0].len() as u32, b[1].len() as u32)
    }

    /// The single-store configuration stripe `s` of a `cfg` run executes:
    /// the stripe's local shape, `stripes = 1`, and — only when the run is
    /// actually striped, so a one-stripe run stays bit-identical to the
    /// unstriped one — a seed mixed as `seed ^ splitmix64(s + 1)`, which
    /// gives every stripe independent service-time draws and a distinct
    /// config fingerprint. The striped simulator and the live server both
    /// derive their sub-runs here, so they match by construction.
    #[must_use]
    pub fn sub_config(&self, cfg: &crate::config::SimConfig, s: u32) -> crate::config::SimConfig {
        let mut sub = cfg.clone();
        (sub.n_low, sub.n_high) = self.shape(s);
        sub.stripes = 1;
        if self.stripes > 1 {
            sub.seed = cfg.seed ^ splitmix64(u64::from(s) + 1);
        }
        sub
    }

    /// Remaps a global id owned by *any* stripe onto an object owned by
    /// `stripe`, preserving the class when the stripe holds objects of
    /// that class (falling back to the other class otherwise). Used by
    /// the striped simulator to model cross-stripe reads as home-stripe
    /// traffic with identical cost structure; the live runtime instead
    /// splits the read set across owners (see `strip-live`).
    #[must_use]
    pub fn pin_to(&self, stripe: u32, id: ViewObjectId) -> ViewObjectId {
        let b = &self.back[stripe as usize];
        let (class, slots) = if b[id.class.index()].is_empty() {
            let other = Importance::ALL[1 - id.class.index()];
            (other, &b[other.index()])
        } else {
            (id.class, &b[id.class.index()])
        };
        let slot = (splitmix64(packed(id.class, id.index) ^ 0xC0DE) % slots.len() as u64) as u32;
        ViewObjectId::new(class, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stripe_is_identity() {
        let m = StripeMap::new(1, 8, 8);
        for ci in Importance::ALL {
            for i in 0..8 {
                let id = ViewObjectId::new(ci, i);
                assert_eq!(m.to_local(id), (0, id));
                assert_eq!(m.stripe_of(id), 0);
            }
        }
        assert_eq!(m.shape(0), (8, 8));
    }

    #[test]
    fn round_trip_and_shape_conservation() {
        for stripes in [2u32, 4, 7, 16] {
            let (n_low, n_high) = (37u32, 53u32);
            let m = StripeMap::new(stripes, n_low, n_high);
            let mut low = 0;
            let mut high = 0;
            for s in 0..stripes {
                let (l, h) = m.shape(s);
                low += l;
                high += h;
            }
            assert_eq!((low, high), (n_low, n_high), "stripes={stripes}");
            for class in Importance::ALL {
                let n = if class == Importance::Low {
                    n_low
                } else {
                    n_high
                };
                for index in 0..n {
                    let id = ViewObjectId::new(class, index);
                    let (s, local) = m.to_local(id);
                    assert_eq!(s, stripe_of(class, index, stripes));
                    assert_eq!(m.to_global(s, local), id);
                }
            }
        }
    }

    #[test]
    fn pin_to_lands_on_owned_objects() {
        let m = StripeMap::new(4, 16, 16);
        for class in Importance::ALL {
            for index in 0..16 {
                let id = ViewObjectId::new(class, index);
                for s in 0..4 {
                    let pinned = m.pin_to(s, id);
                    let (n_low, n_high) = m.shape(s);
                    let n = if pinned.class == Importance::Low {
                        n_low
                    } else {
                        n_high
                    };
                    assert!(pinned.index < n, "pin_to escaped stripe {s}");
                }
            }
        }
    }

    #[test]
    fn hash_spreads_reasonably() {
        let m = StripeMap::new(8, 512, 512);
        for s in 0..8 {
            let (l, h) = m.shape(s);
            // 64 expected per class; a pathological hash would collapse
            // whole stripes to zero.
            assert!(l > 32 && l < 96, "low skewed: {l}");
            assert!(h > 32 && h < 96, "high skewed: {h}");
        }
    }
}
