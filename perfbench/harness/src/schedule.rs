//! Seeded inputs: the `serve` request schedule. The products see only
//! what is generated here.

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A request seed: the server takes integers up to 2^53.
    fn request_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// Stream `k` of the benchmark seed, so passes draw independent inputs.
fn stream(seed: u64, k: u64) -> Rng {
    let mut r = Rng::new(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64();
    r
}

/// One `POST /run`: a cell of the quick-scale matrix, by index, and the
/// request seed it is sent with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub cell: usize,
    pub seed: u64,
}

/// What each of the two connections sends in one lockstep step. Both
/// slots holding the same request is a coalescing pair.
pub type Step = [Option<Req>; 2];

/// Share of requests that duplicate the request sent alongside them.
/// It is `LoadgenConfig::default().dup_ratio` in
/// `crates/server/src/loadgen.rs`, the mix `reproduce loadgen`, the
/// documented serve walkthroughs and the CI serve gate all use.
pub const DUP_RATIO: f64 = 0.25;

/// Coalescing pairs in a pass over `cells` cells: with `k` pairs a
/// pass sends `cells + k` requests, `k` of them duplicates, so
/// `k = cells * r / (1 - r)` for a duplicate share `r`.
pub fn pairs(cells: usize) -> usize {
    (cells as f64 * DUP_RATIO / (1.0 - DUP_RATIO)).round() as usize
}

/// The warm-up pass: one request per distinct cell, in seeded order.
pub fn warmup(cells: usize, seed: u64) -> Vec<Req> {
    let mut rng = stream(seed, u64::MAX);
    shuffled(cells, &mut rng)
        .into_iter()
        .map(|cell| Req {
            cell,
            seed: rng.request_seed(),
        })
        .collect()
}

/// Measured pass `p`: every cell exactly once under a fresh request
/// seed (a distinct key, so it is not coalesced, but its artifact is
/// already cached), with [`pairs`] of them sent by both connections at
/// once. Every pass holds the same work, so only order and seeds
/// depend on the benchmark seed.
pub fn pass(cells: usize, seed: u64, p: u64) -> Vec<Step> {
    let mut rng = stream(seed, p);
    let order = shuffled(cells, &mut rng);
    let mut paired = vec![false; cells];
    for &c in shuffled(cells, &mut rng).iter().take(pairs(cells)) {
        paired[c] = true;
    }
    let mut steps = Vec::new();
    let mut open: Option<Req> = None;
    for cell in order {
        let req = Req {
            cell,
            seed: rng.request_seed(),
        };
        if paired[cell] {
            steps.push([Some(req), Some(req)]);
        } else if let Some(first) = open.take() {
            steps.push([Some(first), Some(req)]);
        } else {
            open = Some(req);
        }
    }
    if open.is_some() {
        steps.push([open, None]);
    }
    steps
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_schedule_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(pass(59, 1, 0), pass(59, 1, 0));
        assert_eq!(warmup(59, 1), warmup(59, 1));
        assert_ne!(pass(59, 1, 0), pass(59, 2, 0));
        assert_ne!(pass(59, 1, 0), pass(59, 1, 1), "passes draw fresh inputs");
        assert_ne!(warmup(59, 1), warmup(59, 2));
    }

    #[test]
    fn every_pass_holds_the_same_work() {
        for seed in [1, 7, 1_000_003] {
            let steps = pass(59, seed, 3);
            let mut seen = vec![0usize; 59];
            let mut pairs = 0;
            for s in &steps {
                if s[0] == s[1] {
                    pairs += 1;
                }
                for r in s.iter().flatten() {
                    seen[r.cell] += 1;
                }
            }
            assert_eq!(pairs, super::pairs(59));
            // Paired cells are sent twice, every other cell once.
            assert_eq!(seen.iter().filter(|&&n| n == 2).count(), pairs);
            assert!(seen.iter().all(|&n| n == 1 || n == 2));
            let sent: usize = seen.iter().sum();
            let share = pairs as f64 / sent as f64;
            assert!((share - DUP_RATIO).abs() < 0.01, "duplicate share {share}");
            assert!(steps.iter().flatten().flatten().all(|r| r.seed < 1 << 53));
        }
    }
}
