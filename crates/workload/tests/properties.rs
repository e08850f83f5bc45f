//! Property tests of the workload layer's determinism contract and the
//! histogram's quantile/merge algebra.

use lcs_obs::{bucket_bounds, bucket_index};
use lcs_workload::{generate_trace, LatencyHistogram, Mode, QueryMix, WorkloadSpec, ZipfSampler};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const THETAS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

fn spec_from(
    seed: u64,
    queries: usize,
    theta_index: usize,
    weights: (u32, u32, u32, u32),
    repair: u32,
    open: bool,
) -> WorkloadSpec {
    let mix = QueryMix {
        construct: weights.0,
        verify: weights.1,
        quality: weights.2,
        mst: weights.3,
        repair,
    };
    let mode = if open {
        Mode::Open {
            mean_interarrival_nanos: 1000,
        }
    } else {
        Mode::Closed {
            clients: 3,
            think_nanos: 0,
        }
    };
    WorkloadSpec::new(mode, queries, THETAS[theta_index], mix, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed ⇒ byte-identical query trace, for any spec shape.
    #[test]
    fn same_seed_means_identical_trace(
        seed in 0u64..1_000_000,
        queries in 1usize..200,
        theta_index in 0usize..4,
        weights in (0u32..10, 0u32..10, 0u32..10, 1u32..10),
        repair_weight in 0u32..10,
        entries in 1usize..9,
        open_flag in 0u8..2,
    ) {
        let spec = spec_from(seed, queries, theta_index, weights, repair_weight, open_flag == 1);
        let a = generate_trace(&spec, entries).unwrap();
        let b = generate_trace(&spec, entries).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Mix fractions are respected *exactly* over a full trace: the
    /// per-kind counts equal the largest-remainder apportionment, sum to
    /// the trace length, and zero-weight kinds never appear.
    #[test]
    fn mix_fractions_exact_over_full_trace(
        seed in 0u64..1_000_000,
        queries in 1usize..300,
        weights in (0u32..20, 0u32..20, 0u32..20, 1u32..20),
        repair_weight in 0u32..20,
        entries in 1usize..6,
    ) {
        let spec = spec_from(seed, queries, 0, weights, repair_weight, false);
        let trace = generate_trace(&spec, entries).unwrap();
        prop_assert_eq!(trace.len(), queries);
        let mut got = [0usize; 5];
        for event in &trace {
            got[event.kind.index()] += 1;
        }
        prop_assert_eq!(got, spec.mix.counts(queries));
        let w = [weights.0, weights.1, weights.2, weights.3, repair_weight];
        for k in 0..5 {
            if w[k] == 0 {
                prop_assert_eq!(got[k], 0, "zero-weight kind {} appeared", k);
            }
        }
    }

    /// Zipf sampling frequencies are rank-ordered and match the analytic
    /// mass within sampling tolerance on small corpora.
    #[test]
    fn zipf_frequencies_match_analytic_mass(
        seed in 0u64..1_000_000,
        n in 2usize..8,
        theta_index in 0usize..4,
    ) {
        const DRAWS: usize = 20_000;
        let sampler = ZipfSampler::new(n, THETAS[theta_index]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..DRAWS {
            counts[sampler.sample(&mut rng)] += 1;
        }
        // Empirical frequency within ±0.03 of the analytic mass: the
        // binomial std-dev at 20k draws is <= 0.0036, so this is > 8
        // sigma — effectively never flaky, tight enough to catch an
        // off-by-one in the CDF inversion.
        for (rank, &count) in counts.iter().enumerate() {
            let freq = count as f64 / DRAWS as f64;
            let mass = sampler.mass(rank);
            prop_assert!(
                (freq - mass).abs() < 0.03,
                "rank {}: freq {:.4} vs mass {:.4}", rank, freq, mass
            );
        }
        // Rank order, with slack for sampling noise on near-equal masses.
        for rank in 1..n {
            prop_assert!(
                counts[rank - 1] + DRAWS / 25 >= counts[rank],
                "rank {} out of order: {} then {}", rank, counts[rank - 1], counts[rank]
            );
        }
    }
}

/// Expands compact (base, shift) pairs into values spanning the full
/// histogram range without needing a 64-bit strategy.
fn expand(values: &[(u64, u32)]) -> Vec<u64> {
    values.iter().map(|&(base, shift)| base << shift).collect()
}

fn histogram_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact quantile: smallest recorded value with at least ⌈q·n⌉
/// samples at or below it.
fn oracle_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let target = ((q * sorted.len() as f64).ceil() as usize)
        .max(1)
        .min(sorted.len());
    sorted[target - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles agree with a sorted-Vec oracle up to bucket
    /// resolution: the reported value is >= the exact order statistic and
    /// lies in the same log-linear bucket.
    #[test]
    fn quantiles_match_sorted_vec_oracle(
        raw in proptest::collection::vec((0u64..1000, 0u32..45), 1..60),
        q_index in 0usize..4,
    ) {
        let q = [0.5, 0.95, 0.99, 1.0][q_index];
        let values = expand(&raw);
        let h = histogram_of(&values);
        let reported = h.quantile(q);
        let exact = oracle_quantile(&values, q);
        prop_assert!(reported >= exact, "reported {} < exact {}", reported, exact);
        prop_assert_eq!(
            bucket_index(reported),
            bucket_index(exact),
            "reported {} and exact {} in different buckets", reported, exact
        );
        let (_, high) = bucket_bounds(bucket_index(exact));
        prop_assert!(reported <= high.min(h.max()));
    }

    /// Merge is commutative and associative, and equals recording the
    /// concatenation directly.
    #[test]
    fn merge_is_associative_and_commutative(
        raw_a in proptest::collection::vec((0u64..500, 0u32..40), 0..30),
        raw_b in proptest::collection::vec((0u64..500, 0u32..40), 0..30),
        raw_c in proptest::collection::vec((0u64..500, 0u32..40), 0..30),
    ) {
        let (a, b, c) = (expand(&raw_a), expand(&raw_b), expand(&raw_c));
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        // Commutative: a+b == b+a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging equals recording the concatenation.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&ab_c, &histogram_of(&all));

        // Zero-count buckets never panic quantile extraction, merged or
        // not, empty or not.
        for h in [&ab_c, &LatencyHistogram::new()] {
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let _ = h.quantile(q);
            }
        }
    }
}
