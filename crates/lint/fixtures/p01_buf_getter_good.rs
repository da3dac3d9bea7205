//! P01 clean: fixed-width reads go through the checked `wire` reads, so a
//! short buffer is a typed error.
#![forbid(unsafe_code)]

fn parse_header(h: &mut &[u8]) -> Result<Header, WireError> {
    let magic = wire::get_u32(h, "header magic")?;
    let kind = wire::get_u8(h, "header kind")?;
    Ok(Header { magic, kind })
}
