//! P01 violation: fixed-width reads with the `bytes::Buf` getters, which
//! panic on a short buffer.
#![forbid(unsafe_code)]

fn parse_header(h: &mut &[u8]) -> Header {
    let magic = h.get_u32_le();
    let kind = h.get_u8();
    Header { magic, kind }
}
