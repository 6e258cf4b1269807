// Fixture: must trigger S2 (one-update-path) exactly once: the channel
// carries an update outside the test module.
// Scanned as crates/live/src/server.rs; not compiled.

fn forward(tx: &Sender<Ingest>, w: WireUpdate) -> bool {
    tx.send(Ingest::Update(w)).is_ok()
}

#[cfg(test)]
mod tests {
    fn inject(tx: &Sender<Ingest>, w: WireUpdate) -> bool {
        tx.send(Ingest::Update(w)).is_ok()
    }
}
