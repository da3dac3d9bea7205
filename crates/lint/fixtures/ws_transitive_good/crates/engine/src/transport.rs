//! Fixture transport: the typed-error indexing shape `ws_transitive_bad`
//! should have used.

pub struct Mesh {
    seqs: Vec<u64>,
}

impl Mesh {
    fn send(&mut self, dst: usize) -> Result<u64, String> {
        let s = self
            .seqs
            .get_mut(dst)
            .ok_or_else(|| "no mesh state for that peer".to_string())?;
        *s += 1;
        Ok(*s)
    }
}
