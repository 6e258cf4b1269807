// Fixture: must pass every structure row: the needles appear only in
// comments, strings and a test module, where no row looks.
// Not compiled; read as data by the self-tests.

use std::collections::BTreeMap;

// Not `fn run_until`, nor `Msg::Update(` nor `std::fs`.
fn lookup(m: &BTreeMap<u32, u32>, k: u32) -> Option<u32> {
    let _ = "fn run_until strip_live::wal AdmissionControl";
    m.get(&k).copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_file() {
        let _ = std::fs::read("scratch");
    }
}
