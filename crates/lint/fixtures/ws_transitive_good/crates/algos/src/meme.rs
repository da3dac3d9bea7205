//! A program whose checkpoint decoder reads through the checked reads.

impl SubgraphProgram for Meme {
    fn restore_state(&mut self, buf: &mut Bytes) -> Result<(), WireError> {
        self.count = wire::get_u32(buf, "meme count")?;
        Ok(())
    }
}
