//! The ledger's only source of randomness: a splitmix64 stream seeded by
//! `--seed`. It produces the corpus seeds and the whole request list before
//! anything runs; the product sees only the generated inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is far below anything the
    /// workloads could notice at these `n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(hi - lo + 1)
    }

    /// An independent stream for one purpose, so adding draws to one part
    /// of the generator never shifts another part's inputs.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.0.len() - 1)
    }
}
