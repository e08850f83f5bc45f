//! Request lists: fixed-length, seeded, and generated by the benchmark's
//! own code, so no change to the program can change the inputs it is
//! measured on.

use std::fmt;

/// A served query kind, spelled as the wire protocol spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Construct,
    Verify,
    Quality,
    Mst,
    Repair,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Construct,
        Kind::Verify,
        Kind::Quality,
        Kind::Mst,
        Kind::Repair,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Construct => "construct",
            Kind::Verify => "verify",
            Kind::Quality => "quality",
            Kind::Mst => "mst",
            Kind::Repair => "repair",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One request of a list: a query kind against a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Request {
    pub kind: Kind,
    pub entry: usize,
}

impl Request {
    /// The protocol line for this request, newline included, so a client
    /// sends it with one write.
    pub fn line(&self, graph: &str) -> String {
        format!(
            "{{\"op\":\"query\",\"graph\":\"{graph}\",\"kind\":\"{}\",\"entry\":{}}}\n",
            self.kind.label(),
            self.entry
        )
    }
}

/// SplitMix64 (Steele, Lea and Flood): small, fast and fully specified.
#[derive(Debug, Clone)]
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

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (rejection sampling, no modulo bias).
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

/// The seed of one list: a pure function of the run seed, the workload
/// name and the list's index within the run.
pub fn list_seed(seed: u64, workload: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a over the name
    for byte in workload.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rng = Rng::new(h ^ seed);
    rng.next_u64() ^ index.wrapping_mul(0xd134_2543_de82_ef95)
}

/// Exact per-kind counts for a list of `len` requests: each kind gets
/// `len · weight / total`, and the remainders go to the largest
/// fractional parts (ties to the earlier kind), so the counts always sum
/// to `len` and equal the exact shares whenever those are whole.
pub fn apportion(mix: &[(Kind, usize)], len: usize) -> Vec<(Kind, usize)> {
    let total: usize = mix.iter().map(|&(_, w)| w).sum();
    assert!(total > 0, "a mix needs a positive weight");
    let mut counts: Vec<(Kind, usize)> = mix.iter().map(|&(k, w)| (k, len * w / total)).collect();
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((len * mix[i].1) % total));
    let short = len - counts.iter().map(|&(_, c)| c).sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i].1 += 1;
    }
    counts
}

/// Zipf(θ) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^θ`, so
/// θ = 0 is uniform and θ = 1 puts most traffic on the first entries.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(theta);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.unit() * total;
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// What a serve workload's lists are made of.
#[derive(Debug, Clone, Copy)]
pub struct ListSpec {
    pub workload: &'static str,
    pub len: usize,
    pub mix: &'static [(Kind, usize)],
    pub entries: usize,
    pub theta: f64,
}

/// The `index`-th request list of a run: the apportioned kinds in seeded
/// shuffled order, each against a Zipf-drawn entry.
pub fn request_list(spec: &ListSpec, seed: u64, index: u64) -> Vec<Request> {
    let mut rng = Rng::new(list_seed(seed, spec.workload, index));
    let mut kinds: Vec<Kind> = apportion(spec.mix, spec.len)
        .into_iter()
        .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let zipf = Zipf::new(spec.entries, spec.theta);
    kinds
        .into_iter()
        .map(|kind| Request {
            kind,
            entry: zipf.sample(&mut rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ: ListSpec = crate::serve::SERVE_READ.list;
    const BUILD: ListSpec = crate::serve::SERVE_BUILD.list;

    fn count(list: &[Request], kind: Kind) -> usize {
        list.iter().filter(|r| r.kind == kind).count()
    }

    #[test]
    fn lists_are_a_pure_function_of_seed_workload_and_index() {
        for spec in [READ, BUILD] {
            for seed in [0, 1, 17] {
                assert_eq!(request_list(&spec, seed, 3), request_list(&spec, seed, 3));
                assert_ne!(request_list(&spec, seed, 3), request_list(&spec, seed, 4));
                assert_ne!(
                    request_list(&spec, seed, 3),
                    request_list(&spec, seed + 1, 3)
                );
            }
        }
        // Same seed and index, other workload name: another list.
        let renamed = ListSpec {
            workload: "serve-other",
            ..READ
        };
        assert_ne!(request_list(&READ, 0, 0), request_list(&renamed, 0, 0));
    }

    #[test]
    fn lists_hit_the_mix_counts_exactly() {
        for spec in [READ, BUILD] {
            for index in 0..20 {
                let list = request_list(&spec, 5, index);
                assert_eq!(list.len(), spec.len);
                for &(kind, weight) in spec.mix {
                    assert_eq!(count(&list, kind), spec.len * weight / 100, "{kind}");
                }
                assert!(list.iter().all(|r| r.entry < spec.entries));
            }
        }
    }

    #[test]
    fn apportion_sums_to_the_length_when_shares_are_fractional() {
        let mix = [(Kind::Verify, 1), (Kind::Quality, 1), (Kind::Mst, 1)];
        for len in 0..50 {
            let counts = apportion(&mix, len);
            assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), len);
            let (lo, hi) = (len / 3, len.div_ceil(3));
            assert!(counts.iter().all(|&(_, c)| c == lo || c == hi));
        }
    }

    #[test]
    fn zipf_skews_towards_the_first_rank_and_zero_theta_is_flat() {
        let mut rng = Rng::new(9);
        let skewed = Zipf::new(8, 1.0);
        let mut hits = [0usize; 8];
        for _ in 0..80_000 {
            hits[skewed.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1 / H_8 ≈ 36.8 % of the mass, rank 7 ≈ 4.6 %.
        assert!((28_000..31_000).contains(&hits[0]), "{hits:?}");
        assert!((3_200..4_200).contains(&hits[7]), "{hits:?}");
        let flat = Zipf::new(4, 0.0);
        let mut hits = [0usize; 4];
        for _ in 0..40_000 {
            hits[flat.sample(&mut rng)] += 1;
        }
        assert!(
            hits.iter().all(|&h| (9_400..10_600).contains(&h)),
            "{hits:?}"
        );
    }

    #[test]
    fn request_lines_follow_the_wire_grammar() {
        let line = Request {
            kind: Kind::Repair,
            entry: 7,
        }
        .line("torus");
        assert_eq!(
            line,
            "{\"op\":\"query\",\"graph\":\"torus\",\"kind\":\"repair\",\"entry\":7}\n"
        );
        let parsed = lcs_server::Request::parse(&line).expect("the server parses the line");
        assert_eq!(parsed.to_line(), line.trim_end());
    }
}
