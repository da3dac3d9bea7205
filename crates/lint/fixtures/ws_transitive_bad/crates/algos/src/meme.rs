//! A program whose checkpoint decoder reads with an unchecked getter. Its
//! compute is user code, outside the transitive boundary.

impl SubgraphProgram for Meme {
    fn compute(&mut self, buf: &mut Bytes) {
        self.seen = buf.get_u8() != 0;
    }

    fn restore_state(&mut self, buf: &mut Bytes) -> Result<(), WireError> {
        self.count = buf.get_u32_le();
        Ok(())
    }
}
