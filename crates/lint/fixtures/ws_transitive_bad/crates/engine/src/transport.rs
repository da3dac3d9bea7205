//! Fixture transport: a transport entry point that indexes a
//! per-peer state vector — the P01 indexing sub-check, rooted at `send`.

pub struct Mesh {
    seqs: Vec<u64>,
}

impl Mesh {
    fn send(&mut self, dst: usize) -> u64 {
        self.seqs[dst] += 1;
        self.seqs[dst]
    }
}
