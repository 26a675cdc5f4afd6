// Miniature codec-table file used by the WIRE-TAGS tests: shaped like
// crates/wire/src/proto.rs (one `codec_table!` per enum; each row declares
// a tag and its variant once) without depending on the real wire crate.
pub enum Msg {
    Ping,
    Pong { seq: u64 },
}

codec_table! {
    Msg;
    0 => Ping,
    1 => Pong { seq: u64 },
}
