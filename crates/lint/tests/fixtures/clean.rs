// Fixture: must pass every rule and every structure row, exercising the
// escape hatches.
// Not compiled; read as data by the self-tests.

use std::collections::BTreeMap;
// lint: allow(nondeterministic-order, reason=keyed lookups only; never iterated)
use std::collections::HashMap;

fn lookup(m: &BTreeMap<u32, u32>, k: u32) -> Option<u32> {
    m.get(&k).copied()
}

fn first(xs: &[u8]) -> u8 {
    // SAFETY: callers guarantee `xs` is non-empty, so the pointer read
    // stays in bounds.
    unsafe { *xs.as_ptr() }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn membership() {
        let mut s = HashSet::new();
        s.insert(1u8);
        assert!(s.contains(&1));
    }
}
