// Fixture: must trigger S2 (one-update-path) exactly once: a frame that
// carries a single update beside the batch frame.
// Scanned as crates/live/src/protocol.rs; not compiled.

fn encode_one(u: WireUpdate) -> Vec<u8> {
    Msg::Update(u).encode_body()
}

fn encode_batch(u: WireUpdate) -> Vec<u8> {
    Msg::UpdateBatch(vec![u]).encode_body()
}
