//! SplitMix64: the benchmark's only source of randomness, so one `--seed`
//! fixes every statement of every client.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `(seed, lane)`: lanes are workload × client,
    /// so two clients of one run never share a sequence.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
